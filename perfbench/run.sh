#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload farm --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run write —
# the Go build cache, the binary, serve's data directory, span files — goes
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/gopath" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" --data "$out/data" --out "$out/trace" "$@"
