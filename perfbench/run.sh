#!/usr/bin/env bash
# Builds redpatchd and the benchmark from this tree, then runs the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload evaluate-warm --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and
# span dumps stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/redpatchd" ./cmd/redpatchd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/redpatchd" -out "$out" "$@"
