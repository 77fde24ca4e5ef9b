#!/usr/bin/env bash
# Build the benchmark and the server from source, then run the
# benchmark.  Run from the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail

# The shared dune cache lives outside the checkout; keep everything in it.
export DUNE_CACHE=disabled
dune build --root . --display quiet \
  ./perfbench/bench.exe ./bin/dcsa_synth.exe 1>&2

if [ -e .git ]; then
  PERFBENCH_GIT_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo none)
else
  PERFBENCH_GIT_COMMIT=none
fi
export PERFBENCH_GIT_COMMIT

exec ./_build/default/perfbench/bench.exe \
  --server-bin ./_build/default/bin/dcsa_synth.exe "$@"
