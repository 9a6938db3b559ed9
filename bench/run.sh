#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload ro-hashmap --seed 1 --seconds 30 --trace 0
#
# Every build product (binary, Go build cache, temporaries) stays under
# .bench_build/ at the root. The benchmark runs in bench/, so span files and
# stall dumps go to bench/out/ and a relative -record path is taken from
# bench/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
cd "$root/bench"
go build -o "$build/bench" .
exec "$build/bench" "$@"
