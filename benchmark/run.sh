#!/bin/sh
# BENCHMARK.json names this script as the benchmark's command: it is
# `go run ./benchmark "$@"` with everything the go command and the run write
# (build cache, the binary, temporary journals) kept under .bench_build in
# the current directory, because a benchmark run may write nothing outside
# its checkout. Run it from the repository root:
#
#   sh benchmark/run.sh --workload token_hot --seed 1 --seconds 24 --trace 0
#
# Without the repository's go.mod (a directory holding only the benchmark's
# own files) it stops before printing any result.
set -eu

if [ ! -f go.mod ] || [ ! -f benchmark/main.go ]; then
	echo "benchmark/run.sh: run from the repository root (go.mod and benchmark/ not found)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export HOME="$build" GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOENV=off GOTOOLCHAIN=local TMPDIR="$build/tmp"

go build -o "$build/medbench" ./benchmark
exec "$build/medbench" "$@"
