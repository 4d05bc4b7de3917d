#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload point_mem_deep --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh                      # all workloads, untraced then traced
#   bash bench/run.sh -compare A.json B.json
#
# Everything the build and the run write stays inside the checkout: the go
# build cache and the binary under .bench_build/, data dirs and trace files
# under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/../.bench_build/tmp" "$here/../.bench_build/home"
build="$(cd "$here/../.bench_build" && pwd)"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
unset XDG_CONFIG_HOME XDG_CACHE_HOME
cd "$here"
go build -o "$build/pgrid-bench" .
exec "$build/pgrid-bench" "$@"
