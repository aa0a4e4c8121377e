#!/bin/sh
# Tier-1 CI entry point: build + full test suite + chaos smoke sweep,
# plus repo hygiene guards. Run from the repository root.
#
#   scripts/ci.sh        build + tests + chaos smoke + mc smoke, and
#                        one perfbench churn run (a live node crashes
#                        and rejoins from its WAL over real sockets),
#                        gated on its Checker verdict
#   scripts/ci.sh smoke  also exercise the micro-benchmarks once
#                        (liveness only — no timing gates), emit
#                        BENCH_purge.json, and smoke the live
#                        observability surface (admin endpoint +
#                        svs_trace analyzer)
#   scripts/ci.sh bench-smoke
#                        one short perfbench saturate run and one
#                        quake-paced run (2 s each in all), each gated
#                        on exit status 0, the Checker verdict
#                        "correct": true and a words/msg allocation
#                        budget, and saturate's top heap on a MiB
#                        budget — no timing gates
#   scripts/ci.sh fuzz-smoke
#                        run the byte-level fuzz suite with a bigger
#                        iteration budget (FUZZ_ITERS, default 2000)
#   scripts/ci.sh overload
#                        overload-survival smoke: the wedged-consumer
#                        chaos scenario under its backlog budget, the
#                        inverted no-shed self-test, the svs_mc
#                        shed preset, and one traced perfbench wedged
#                        run gated on its Checker verdict (which also
#                        fails on any frame shed on the healthy link)
#                        and on frames shed towards the wedged member
#   scripts/ci.sh chaos  the full chaos sweep (20 seeds x every
#                        scenario x both oracle modes) plus the
#                        drop-cover, split-brain and evict-uncovered
#                        mutation self-tests
#   scripts/ci.sh mc     the full model-checking sweep: every svs_mc
#                        preset explored exhaustively, the DPOR
#                        reduction compared against naive DFS for
#                        soundness, and all four seeded mutations
#                        caught with replay-verified counterexamples
#                        (the quick mc smoke below runs on every tier)
#   scripts/ci.sh loc    only print the .ml and .mli line totals under
#                        lib/ and bin/, raw and non-blank non-comment
#                        (no build, no tests, no gate)
set -eu

cd "$(dirname "$0")/.."

# Guard: build artifacts must never be committed (they were, once).
if git ls-files | grep -q '^_build/'; then
  echo "ci: _build/ is tracked by git — run 'git rm -r --cached _build'" >&2
  exit 1
fi

# Line counts of OCaml sources: "raw code" for the files named, where
# a code line is one with anything outside a comment. Comments nest;
# string and character literals are skipped, so a "(*" inside one
# opens nothing (strings inside comments are lexed too, as OCaml does).
loc_count() {
  awk '
    FNR == 1 { depth = 0; instr = 0 }
    {
      raw++; code = 0; n = length($0)
      for (i = 1; i <= n; i++) {
        c = substr($0, i, 1)
        if (instr) {
          if (c == "\\") i++
          else if (c == "\"") instr = 0
          if (depth == 0) code = 1
          continue
        }
        if (substr($0, i, 2) == "(*") { depth++; i++; continue }
        if (depth > 0 && substr($0, i, 2) == "*)") { depth--; i++; continue }
        if (c == "\"") instr = 1
        else if (substr($0, i, 3) ~ /^\047.\047$/) i += 2
        else if (substr($0, i, 4) ~ /^\047\\.\047$/) i += 3
        if (depth == 0 && c !~ /[ \t\r]/) code = 1
      }
      if (code) lines++
    }
    END { printf "%d %d\n", raw, lines }' "$@"
}

if [ "${1:-}" = "loc" ]; then
  total_raw=0; total_code=0
  for dir in lib bin; do
    for ext in ml mli; do
      files=$(find "$dir" -name "*.$ext" | sort)
      [ -n "$files" ] || continue
      # shellcheck disable=SC2086
      set -- $(loc_count $files)
      printf 'loc: %-4s .%-3s %6d raw %6d code\n' "$dir/" "$ext" "$1" "$2"
      total_raw=$((total_raw + $1)); total_code=$((total_code + $2))
    done
  done
  printf 'loc: total      %6d raw %6d code\n' "$total_raw" "$total_code"
  exit 0
fi

dune build
dune runtest

# Run a chaos sweep through its machine-readable gate: --json makes
# the verdict scriptable, and a violation fails loudly here with the
# replay line each failing run carries in its "replay" field.
chaos_json() {
  if out=$(dune exec bin/svs_chaos.exe -- --json "$@"); then
    printf '%s\n' "$out"
  else
    printf '%s\n' "$out"
    echo "ci: chaos sweep FAILED; replay each failing run with:" >&2
    printf '%s' "$out" | grep -o '"replay":"[^"]*"' | cut -d'"' -f4 | sed 's/^/  /' >&2
    exit 1
  fi
}

# Chaos smoke: a small deterministic seed sweep through the fault
# scenarios — including the partition-survival splits, which must
# park the minority and merge it back — machine-checked by the SVS
# safety oracle (see CHAOS.md).
chaos_json --seeds 3 \
  --scenarios crash,partition-heal,slow-receiver,churn,crash-restart,exclude-rejoin
chaos_json --seeds 3 --scenarios group-split,split-heal-merge,flapping-split
chaos_json --seeds 3 --scenarios overload

# Hostile-input containment: the three hostile-input scenarios (wire
# garbage over real sockets, WAL interior bit rot, replicated-state
# divergence) must be contained with every defense on.
dune exec bin/svs_chaos.exe -- --hostile

# Inverted self-tests (see CHAOS.md): each turns off one defence —
# crash recovery, merge-on-heal, quarantine, WAL salvage, divergence
# self-healing — and the oracle must flag every run that defence
# should break while every other run stays clean. Proves each defence
# is load-bearing, not oracle blindness. (Expected-red runs dump
# flight recordings; keep them out of the tree.)
dune exec bin/svs_chaos.exe -- --seeds 2 --flight _build/ci-flight \
  --self-test no-recovery,no-merge,no-quarantine,no-salvage,no-heal > /dev/null

# Flight-recorder acceptance: a failing (mutated) run must leave a
# postmortem JSONL dump in the self-test's own subdirectory, named
# after its replay line.
rm -rf _build/ci-flight
dune exec bin/svs_chaos.exe -- --self-test drop-cover --seeds 1 --scenarios crash \
  --modes svs --flight _build/ci-flight > /dev/null
ls _build/ci-flight/drop-cover/flight-crash-svs-1.jsonl > /dev/null || {
  echo "ci: mutated chaos run left no flight-recorder dump" >&2; exit 1; }

# Model-checker smoke: exhaust the acceptance configuration (3 nodes,
# 2 multicasts, 1 crash — every interleaving) and gate on the verdict
# AND a nonzero state count, so an accidentally-empty exploration
# can't pass as green.  See MODELCHECK.md.
mc_out=$(dune exec bin/svs_mc.exe -- --preset smoke --json 2>/dev/null | tail -1)
printf '%s\n' "$mc_out" | grep -q '"outcome": "exhausted"' || {
  echo "ci: model-checker smoke did not exhaust cleanly: $mc_out" >&2; exit 1; }
printf '%s\n' "$mc_out" | grep -q '"states": 0' && {
  echo "ci: model-checker smoke explored zero states" >&2; exit 1; }
echo "ci: model-check smoke OK ($(printf '%s' "$mc_out" | sed -n 's/.*\("states": [0-9]*\).*\("interleavings": [0-9]*\).*/\1, \2/p'))"

# Run one perfbench workload and gate it on exit status 0 and the
# Checker verdict ("correct": true covers the §4 contracts plus the
# inverted drop-one-delivery self-test). No timing gates. The result
# JSON is left in $pb_json for further gates.
perfbench_correct() {
  wl=$1; shift
  if ! pb_out=$(sh perfbench/run.sh --workload "$wl" --seed 1000 "$@" 2>/dev/null); then
    printf '%s\n' "$pb_out" | tail -1 >&2
    echo "ci: perfbench $wl exited non-zero" >&2; exit 1
  fi
  pb_json=$(printf '%s\n' "$pb_out" | tail -1)
  printf '%s\n' "$pb_json" | grep -q '"correct": true' || {
    printf '%s\n' "$pb_json" >&2
    echo "ci: perfbench $wl run is not correct" >&2; exit 1; }
  echo "ci: perfbench $wl OK"
}

# Runtime view change under the oracle: the churn workload crashes a
# live node and restarts it over its WAL, so Chandra–Toueg consensus,
# the heartbeat detector and JOIN/SYNC run over real sockets and the
# whole log must pass Checker.
perfbench_correct churn --seconds 5 --trace 0

if [ "${1:-}" = "smoke" ]; then
  dune exec bench/main.exe -- --smoke

  # Observability smoke: boot a real node with the admin endpoint on,
  # scrape /metrics + /status + /health while it runs, then feed its
  # trace to the offline analyzer.
  obs_dir=$(mktemp -d)
  trap 'rm -rf "$obs_dir"' EXIT
  aport=7491
  dune exec bin/svs_node.exe -- --me 0 --peer 0:127.0.0.1:7391 \
    --publish 8 --rate 50 --duration 4 --admin-port "$aport" \
    --trace "$obs_dir/node0.jsonl" --flight-dump "$obs_dir/flight0.jsonl" \
    --stats-period 0 > "$obs_dir/node0.log" 2>&1 &
  node_pid=$!
  sleep 2
  curl -sf "http://127.0.0.1:$aport/health" | grep -q '^ok'
  curl -sf "http://127.0.0.1:$aport/status" | grep -q '"status":"member"'
  curl -sf "http://127.0.0.1:$aport/metrics" > "$obs_dir/metrics.txt"
  grep -q 'le="+Inf"' "$obs_dir/metrics.txt"
  grep -q '^# TYPE tcp_flushes_total counter' "$obs_dir/metrics.txt"
  grep -q '^# TYPE tcp_writev_bytes_total counter' "$obs_dir/metrics.txt"
  grep -q '^# TYPE tcp_batch_frames histogram' "$obs_dir/metrics.txt"
  curl -sf "http://127.0.0.1:$aport/dump" | grep -q '"ev":'
  wait "$node_pid"
  dune exec bin/svs_trace.exe -- "$obs_dir/node0.jsonl" \
    --json "$obs_dir/trace_summary.json" > /dev/null
  grep -q '"msgs_per_s":' "$obs_dir/trace_summary.json"
  echo "ci: observability smoke OK"
fi

# Gate one end-to-end metric of the last perfbench run on an upper
# budget: minor words per message, or the top of the major heap.
budget_gate() {
  wl=$1; metric=$2; budget=$3
  value=$(printf '%s\n' "$pb_json" | \
    sed -n "s/.*\"$metric\": {\"value\": \([0-9.]*\).*/\1/p")
  [ -n "$value" ] && awk -v v="$value" -v b="$budget" 'BEGIN { exit !(v <= b) }' || {
    echo "ci: perfbench $wl $metric ${value:-?} over its budget $budget" >&2
    exit 1; }
  echo "ci: perfbench $wl $metric $value (budget $budget)"
}

if [ "${1:-}" = "bench-smoke" ] || [ "${1:-}" = "smoke" ]; then
  # Runtime fast path: short saturate and quake-paced runs through the
  # benchmark's own oracle (perfbench/ is the one runtime benchmark;
  # see its README). Allocation is deterministic enough to gate; each
  # budget leaves 10 % headroom over five runs of that setting.
  # Wall-clock figures stay ungated.
  # saturate (unannotated, the purge index idle): 166.0 words/msg
  # (166.02-166.03). Its heap is the unstable delivered store: floors
  # go out on the engine tick after they rise, so it stays near 6 MiB
  # (47 MiB when they went out only on the 0.5 s resend).
  perfbench_correct saturate --seconds 2 --trace 0
  budget_gate saturate words_per_msg 183
  budget_gate saturate top_heap_mib 16
  # quake-paced (annotated, purging and eviction at work): 417.6
  # words/msg (417.26-418.03).
  perfbench_correct quake-paced --seconds 2 --trace 0
  budget_gate quake-paced words_per_msg 459
fi

if [ "${1:-}" = "fuzz-smoke" ]; then
  # Byte-level fuzzing with a bigger budget than the default runtest
  # pass: codec round-trips, mutated/garbage decodes, mesh reassembly
  # at arbitrary chunk boundaries, and WAL bit-flip recovery must
  # never escape the typed error surface (Truncated/Malformed or a
  # clean salvage — anything else is a crash bug).
  FUZZ_ITERS="${FUZZ_ITERS:-2000}" dune exec test/test_fuzz.exe
  echo "ci: fuzz smoke OK"
fi

if [ "${1:-}" = "overload" ]; then
  # Overload survival: the wedged-consumer scenario must stay within
  # its backlog budget with semantic shedding on, and the inverted
  # no-shed self-test must EXCEED the budget — proving the verdict
  # measures shedding, not a generous budget (see CHAOS.md).
  chaos_json --seeds 3 --scenarios overload
  dune exec bin/svs_chaos.exe -- --self-test no-shed --seeds 2

  # Model-check the shedding rule at small scope: every interleaving
  # of the shed preset (threshold 1 — shed at every opportunity) must
  # keep the SVS contracts.
  dune exec bin/svs_mc.exe -- --preset shed | grep -q '^exhausted' || {
    echo "ci: mc shed preset did not exhaust cleanly" >&2; exit 1; }

  # Live shedding over real sockets: the wedged perfbench workload
  # must stay correct (its verdict fails on any frame shed on the
  # healthy link) and must actually shed towards the wedged member.
  # Six seconds cover a full wedge cycle per pass; shorter runs can
  # shed nothing. The traced pass reports the per-link shed counts.
  perfbench_correct wedged --seconds 6 --trace 1
  victim=$(printf '%s\n' "$pb_json" | \
    sed -n 's/.*"tcp_mesh.shed_victim": {"value": \([0-9.]*\).*/\1/p')
  awk -v v="${victim:-0}" 'BEGIN { exit !(v > 0) }' || {
    echo "ci: perfbench wedged shed nothing towards the wedged member" >&2; exit 1; }
  echo "ci: overload smoke OK"
fi

if [ "${1:-}" = "chaos" ]; then
  chaos_json --seeds 20
  dune exec bin/svs_chaos.exe -- --self-test drop-cover,split-brain,evict-uncovered --seeds 5
fi

if [ "${1:-}" = "mc" ]; then
  # Every preset must exhaust its bounded state space cleanly.
  for preset in smoke restart partition vs; do
    dune exec bin/svs_mc.exe -- --preset "$preset" | grep -q '^exhausted' || {
      echo "ci: mc preset $preset did not exhaust cleanly" >&2; exit 1; }
  done

  # Reduction soundness: the sleep-set DPOR must reach the same verdict
  # as the naive DFS while exploring strictly fewer interleavings.
  naive=$(dune exec bin/svs_mc.exe -- --preset smoke --no-reduce --no-dedup --json | tail -1)
  dpor=$(dune exec bin/svs_mc.exe -- --preset smoke --no-dedup --json | tail -1)
  n_il=$(printf '%s' "$naive" | sed -n 's/.*"interleavings": \([0-9]*\).*/\1/p')
  d_il=$(printf '%s' "$dpor" | sed -n 's/.*"interleavings": \([0-9]*\).*/\1/p')
  printf '%s\n' "$naive" | grep -q '"outcome": "exhausted"' || {
    echo "ci: naive DFS did not exhaust" >&2; exit 1; }
  printf '%s\n' "$dpor" | grep -q '"outcome": "exhausted"' || {
    echo "ci: DPOR did not exhaust" >&2; exit 1; }
  [ "$d_il" -lt "$n_il" ] || {
    echo "ci: DPOR did not reduce interleavings ($d_il vs $n_il)" >&2; exit 1; }
  echo "ci: mc reduction OK ($n_il interleavings naive -> $d_il with sleep sets)"

  # Mutation self-tests (inverted): the explorer must find a violation
  # for every seeded log corruption, and the minimized counterexample
  # must replay deterministically.
  mc_dir=$(mktemp -d)
  trap 'rm -rf "$mc_dir"' EXIT
  for mut in drop-cover:smoke dup-restart:restart split-brain:smoke evict-uncovered:vs; do
    kind=${mut%%:*}; preset=${mut##*:}
    dune exec bin/svs_mc.exe -- --preset "$preset" --mutate "$kind" \
      --trace-out "$mc_dir/$kind.trace" > /dev/null || {
      echo "ci: mc self-test missed mutation $kind" >&2; exit 1; }
    dune exec bin/svs_mc.exe -- --replay "$mc_dir/$kind.trace" > /dev/null || {
      echo "ci: mc counterexample for $kind did not replay" >&2; exit 1; }
  done
  echo "ci: mc mutation self-tests OK"
fi

echo "ci: OK"
