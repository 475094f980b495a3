#!/bin/sh
# Builds the guardrail CLI and the benchmark from this checkout, then runs
# one workload:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a guardrail checkout (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./perfbench/main.exe ./bin/guardrail_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
