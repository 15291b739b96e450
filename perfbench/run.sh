#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources, then runs it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to standard error, so the benchmark's result stays the
# last line of standard output. Without the repository's sources beside
# it the build cannot succeed, and the script exits non-zero without a
# result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no dune-project and lib/ here; run from a checkout of the repository" >&2
  exit 2
fi
# --cache=disabled keeps every build artefact inside the checkout.
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
