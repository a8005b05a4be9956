#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload sort-file --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, the go command's own state and every
# temporary file (tape spill files included) stay under .bench_build in
# the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/extmem-bench" .
exec "$out/extmem-bench" "$@"
