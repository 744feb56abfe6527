#!/usr/bin/env bash
# Build the benchmark runner and the gpuopt CLI from source, then run
# the runner with the given arguments.  Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-quick --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
#
# The result is the last line of standard output.  A failed build exits
# nonzero before anything is printed on standard output.
set -euo pipefail

# Keep every build artifact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled

if ! dune build --root . ./perfbench/main.exe ./bin/gpuopt.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/main.exe "$@"
