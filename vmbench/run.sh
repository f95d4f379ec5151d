#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash vmbench/run.sh --workload fork --seed 1 --seconds 20 --trace 0
# Every build artifact, cache and temporary file stays under .bench_build
# in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTELEMETRY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=mod

(cd "$root/vmbench" && go build -o "$out/vmbench" .)
exec "$out/vmbench" "$@"
