#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments (see README.md):
#
#   bash perfbench/run.sh --workload table2 --seed 1 --seconds 15 --trace 0
#
# Run it from the root of a checkout. Everything the build writes
# (binary, Go build cache, trace files) stays under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
