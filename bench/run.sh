#!/usr/bin/env bash
# The command of BENCHMARK.json. Run from the root of a checkout:
#
#   bash bench/run.sh --workload portal_read --seed 1 --seconds 15 --trace 0
#
# Builds mdwd (the server under test) and mdwbench (the driver) from the
# checkout's sources into .bench_build/, then hands over to mdwbench.
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"

go build -o "$build/mdwd" ./cmd/mdwd
(cd bench && go build -o "$build/mdwbench" ./cmd/mdwbench)
exec "$build/mdwbench" -mdwd "$build/mdwd" -out "$build/out" "$@"
