#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (and with it the
# engine) from the checkout's sources, keeping every build product inside the
# checkout, then runs it from the checkout root with the driver's arguments.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -C "$root/bench" -o "$build/anywhere-bench" .
cd "$root"
exec "$build/anywhere-bench" "$@"
