#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source into
# .bench_build/ at the root of the checkout and runs it with the given
# arguments. Everything the build writes (binary, build cache, temporary
# files) stays inside the checkout, and nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
