#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it with the given
# arguments.  Run from the repository root:
#
#   bash perfbench/run.sh --workload soak-100k --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build in
# the current directory (the go command's cache, temporary files and
# telemetry counters included); the toolchain is used offline.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
