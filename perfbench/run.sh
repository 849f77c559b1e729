#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload paper-campaign --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --runs 10
# Run it from the repository root. The benchmark is a Go module of its
# own (perfbench/go.mod) that builds the repository from source through
# a replace directive; everything the build and the runs write stays
# under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" || ! -f "$root/BENCHMARK.json" ]]; then
	echo "run.sh: run from the repository root (needs go.mod, perfbench/go.mod and BENCHMARK.json)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
