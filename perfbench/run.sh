#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload tcp-zipf --seed 1 --seconds 20 --trace 0
# Build outputs and the Go build and module caches stay under .bench_build/
# ($CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -C perfbench -o "$build/perfbench" . >&2
exec "$build/perfbench" -tmp "$build" "$@"
