#!/bin/sh
# Build the benchmark and the daemon it drives from source, then run
# the benchmark with the given arguments.  Run from the repository root:
#
#   sh relbench/run.sh --workload steps --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.  The dune cache is disabled so that nothing
# is read or written outside the checkout.
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet \
  ./relbench/relbench.exe ./bin/roundelimd.exe 1>&2
# Pin the benchmark, and the daemon it spawns, to one CPU (the first
# this process may use): the reference machine has one core, and
# cross-CPU wake-ups between the load generator and the daemon made
# run-to-run latencies bimodal.
if command -v taskset >/dev/null 2>&1; then
  cpu=$(taskset -pc $$ | sed 's/.*[-,: ]//')
  exec taskset -c "$cpu" ./_build/default/relbench/relbench.exe "$@"
fi
exec ./_build/default/relbench/relbench.exe "$@"
