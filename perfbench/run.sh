#!/usr/bin/env bash
# Builds the benchmark program from source and runs it from the checkout
# root, passing every argument through:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/ inside the
# checkout. The program is a module of its own that imports the
# repository's packages through a replace directive, so it cannot build
# without the repository around it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
