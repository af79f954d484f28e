#!/usr/bin/env bash
# Build and run hetbench from the root of a hetmig checkout:
#   bash hetbench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. Exits 2 without a result outside a hetmig checkout.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/sched ] || [ ! -d lib/core ]; then
  echo "hetbench: $(pwd) is not a hetmig checkout (no dune-project or lib/)" >&2
  exit 2
fi
dune build --root . ./hetbench/main.exe >&2
HETBENCH_GIT_REV=$(GIT_CEILING_DIRECTORIES="$(dirname "$(pwd)")" \
  git rev-parse --short HEAD 2>/dev/null || echo unknown)
export HETBENCH_GIT_REV
exec ./_build/default/hetbench/main.exe "$@"
