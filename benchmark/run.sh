#!/usr/bin/env bash
# Hermetic entry point named by BENCHMARK.json: builds the benchmark and
# ipcompd from source with every toolchain cache inside the checkout
# (.bench_build/), then runs the benchmark from the checkout root.
#
#   bash benchmark/run.sh --workload serve_cold_roi --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/cmd/ipcompd" ] || {
	echo "benchmark/run.sh: run from the root of a checkout that holds the program (go.mod, cmd/ipcompd)" >&2
	exit 2
}
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
# The go command also writes telemetry counters under the user's
# configuration directory and would put a module cache under GOPATH.
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
go build -C benchmark -o "$build/bin/ipbenchmark" .
exec "$build/bin/ipbenchmark" "$@"
