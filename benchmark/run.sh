#!/bin/sh
# Builds the benchmark inside the checkout and runs one workload:
#
#   sh benchmark/run.sh --workload knn-local --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, binaries)
# goes under .bench_build/ at the root of the checkout, and everything
# the benchmark writes under benchmark/out/. The build needs the whole
# checkout: the benchmark imports the packages it measures.
set -eu
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go build -o "$build/semtree-benchmark" .
exec "$build/semtree-benchmark" "$@"
