#!/bin/sh
# Runtime observability bench (MODE=trace, the only mode): boot a real
# 3-node cluster as separate svs_node processes, record per-node JSONL
# traces, and merge them with svs_trace into one analysis JSON
# (throughput, latency percentiles, stability lag, purge
# effectiveness, anomaly counts).
#
#     MODE=trace DURATION=10 RATE=200 scripts/bench_rt.sh
#
# Throughput, latency and allocation are measured by the checked
# benchmark in perfbench/ (sh perfbench/run.sh --workload saturate).
#
# Environment knobs:
#   MODE        trace                            (default trace)
#   DURATION    run length in seconds            (default 10)
#   OUT         output JSON path                 (default BENCH_rt_trace.json)
#   RATE        publish rate, msg/s              (default 200)
#   ITEMS       distinct data items published    (default 16)
#   PORT_BASE   first TCP port; nodes use +0..+2 (default 7200)
#   ADMIN_BASE  first admin port, 0 = disabled   (default 0)
set -eu

cd "$(dirname "$0")/.."

MODE="${MODE:-trace}"
if [ "$MODE" != "trace" ]; then
  echo "bench_rt: unknown MODE=$MODE (only trace; use perfbench/run.sh for throughput)" >&2
  exit 2
fi

DURATION="${DURATION:-10}"
RATE="${RATE:-200}"
ITEMS="${ITEMS:-16}"
PORT_BASE="${PORT_BASE:-7200}"
ADMIN_BASE="${ADMIN_BASE:-0}"
OUT="${OUT:-BENCH_rt_trace.json}"

dune build bin/svs_node.exe bin/svs_trace.exe

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

peers="--peer 0:127.0.0.1:$PORT_BASE \
  --peer 1:127.0.0.1:$((PORT_BASE + 1)) \
  --peer 2:127.0.0.1:$((PORT_BASE + 2))"

pids=""
for i in 0 1 2; do
  workload=""
  [ "$i" = 0 ] && workload="--publish $ITEMS --rate $RATE"
  admin=""
  [ "$ADMIN_BASE" != 0 ] && admin="--admin-port $((ADMIN_BASE + i))"
  # shellcheck disable=SC2086  # deliberate word splitting of flag lists
  ./_build/default/bin/svs_node.exe --me "$i" $peers $workload $admin \
    --duration "$DURATION" --trace "$dir/node$i.jsonl" \
    --flight-dump "$dir/flight-$i.jsonl" --stats-period 0 \
    > "$dir/node$i.log" 2>&1 &
  pids="$pids $!"
done

for pid in $pids; do
  wait "$pid" || { echo "bench_rt: a node exited non-zero; logs:" >&2
                   cat "$dir"/node*.log >&2; exit 1; }
done

./_build/default/bin/svs_trace.exe "$dir"/node0.jsonl "$dir"/node1.jsonl \
  "$dir"/node2.jsonl --json "$OUT"
echo "bench_rt: wrote $OUT"
