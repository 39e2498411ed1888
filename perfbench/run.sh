#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Outside a checkout of the full source
# tree the build fails and the script exits non-zero.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
