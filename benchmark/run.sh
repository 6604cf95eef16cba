#!/bin/bash
# The command in BENCHMARK.json. Builds the benchmark from source into
# .bench_build/ at the root of the checkout (build cache, scratch and
# the go command's own state included, so nothing is written outside
# it), then runs it from the root with the driver's arguments:
#
#   bash benchmark/run.sh --workload cold-scan --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" -trace-out "$build/trace" "$@"
