#!/usr/bin/env bash
# Builds the benchmark from source and runs it; everything it writes stays
# inside the checkout (.bench_build/ for the build, bench/out/ for traces
# and reports). Arguments are passed to the benchmark unchanged.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C bench -o "$build/ampsched-bench" .
exec "$build/ampsched-bench" "$@"
