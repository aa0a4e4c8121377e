#!/bin/sh
# Build the benchmark from source, then run one workload.
#
#   sh perfbench/run.sh --workload <saturate|quake-paced|wedged|churn> \
#       --seed N --seconds S --trace <0|1>
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the result JSON. Everything the run writes (the
# dune build tree, compiler temporaries, the nodes' write-ahead logs)
# stays inside the current directory.
set -eu

if ! command -v dune > /dev/null 2>&1 && command -v opam > /dev/null 2>&1; then
  eval "$(opam env 2> /dev/null)" || true
fi

scratch=_perfbench_run/tmp
mkdir -p "$scratch"
TMPDIR="$PWD/$scratch"
export TMPDIR
status=0
# No shared build cache: the build reads and writes only this tree.
DUNE_CACHE=disabled dune build --root . ./perfbench/svsbench.exe 1>&2 || status=$?
if [ "$status" -eq 0 ]; then
  ./_build/default/perfbench/svsbench.exe "$@" || status=$?
fi
rm -rf "$scratch"
rmdir _perfbench_run 2> /dev/null || true
exit "$status"
