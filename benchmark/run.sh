#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it with the arguments given. Everything the build and the run write
# (build cache, binary, spill files) stays under .bench_build in the
# current directory, which must be the repository root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# Go telemetry off (what `go telemetry off` writes): with a fresh config
# directory the go command otherwise starts a detached upload child that
# outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/dashbench" ./benchmark
exec "$build/dashbench" "$@"
