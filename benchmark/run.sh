#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it. Called
# from the repository root as BENCHMARK.json's command; everything it writes
# (build cache, binary, trace samples) stays under the current directory.
set -e
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
