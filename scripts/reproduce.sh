#!/bin/sh
# Regenerate every artifact: tests, the full evaluation, the examples,
# and CSV data files for external plotting.
set -e
cd "$(dirname "$0")/.."

echo "== build =="
dune build @all

echo "== tests =="
dune runtest --force --no-buffer 2>&1 | tee test_output.txt

echo "== evaluation (every table & figure + micro-benchmarks) =="
dune exec bench/main.exe 2>&1 | tee bench_output.txt

echo "== CSV series for plotting =="
mkdir -p results
dune exec bin/svs_cli.exe -- fig3a --csv results/fig3a.csv > /dev/null
dune exec bin/svs_cli.exe -- fig3b --csv results/fig3b.csv > /dev/null
dune exec bin/svs_cli.exe -- fig4 --csv results/fig4 > /dev/null
dune exec bin/svs_cli.exe -- fig5 --csv results/fig5 > /dev/null

echo "== examples =="
for e in quickstart monitoring game_replication view_flush; do
  echo "--- $e"
  dune exec "examples/$e.exe"
done

echo "all artifacts regenerated"
