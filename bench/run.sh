#!/usr/bin/env bash
# Builds the benchmark binary from source and replaces this shell with
# it: `bash bench/run.sh --workload W --seed S --seconds T --trace 0|1`,
# from the root of a checkout. Everything the build and the run write
# stays inside the checkout: the Go build cache under .bench_build/,
# the binary, traces and scratch space under bench/out/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/codec ]; then
	echo "bench/run.sh: run from the root of a checkout of the vbench repository (go.mod and internal/ are missing here)" >&2
	exit 2
fi

root=$PWD
mkdir -p "$root/.bench_build/tmp" "$root/bench/out"
export GOCACHE="$root/.bench_build/go-cache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOWORK=off

# The go command keeps its telemetry counters under the user's config
# directory; point that inside the checkout too, for the build only.
XDG_CONFIG_HOME="$root/.bench_build/config" go build -o bench/out/vbench-e2e ./bench
exec bench/out/vbench-e2e "$@"
