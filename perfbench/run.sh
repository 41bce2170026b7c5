#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#   bash perfbench/run.sh --workload deep-w1 --seed 1 --seconds 12 --trace 0
# Everything the build and the run write (binary, Go build cache, Go
# telemetry and config, scratch stores, spans) stays under .bench_build.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/perfbench-bin" ./perfbench
exec "$build/perfbench-bin" "$@"
