#!/usr/bin/env bash
# Build flowtrace and the benchmark from the sources of this checkout,
# then run the benchmark with the given arguments:
#
#   bash flowbench/run.sh --workload select-hot --seed 1 --seconds 10 --trace 0
#
# Must be started from (or live in) the root of a flowtrace checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f specs/t2.flow ]; then
  echo "flowbench: not the root of a flowtrace checkout: $(pwd)" >&2
  exit 2
fi
build=.bench_build
# keep every build artefact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . --build-dir "$build" --display quiet \
  ./bin/flowtrace.exe ./flowbench/flowbench.exe >&2
exec "$build/default/flowbench/flowbench.exe" \
  --flowtrace "$build/default/bin/flowtrace.exe" "$@"
