#!/usr/bin/env bash
# Builds the benchmark and runs it, keeping everything the toolchain
# writes (build cache, temporary files, the binary) inside the checkout
# under .bench_build/. BENCHMARK.json's command is this script;
# `go run ./bench` from the repository root is the same program.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/superfe-bench" ./bench
exec "$build/superfe-bench" "$@"
