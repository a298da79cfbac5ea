#!/usr/bin/env bash
# Builds the benchmark and the bgl-served daemon it drives from source,
# then runs it from the repository root with the given arguments:
#
#   bash perfbench/run.sh --workload paper-balancing --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
# The shared dune cache is off so the build writes only under _build/.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./perfbench/main.exe ./bin/bgl_served_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
