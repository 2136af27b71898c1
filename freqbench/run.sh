#!/usr/bin/env bash
# Builds freqd and the benchmark from this checkout into .bench_build/,
# then runs the benchmark with the given arguments. Run from the
# repository root:
#
#   bash freqbench/run.sh --workload ingest --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/freqbench" && go build -o "$out/bin/freqbench" .)
go build -o "$out/bin/freqd" ./cmd/freqd
exec "$out/bin/freqbench" --freqd "$out/bin/freqd" --workdir "$out/run" "$@"
