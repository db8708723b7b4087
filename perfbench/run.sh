#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload serve-direct --seed 1 --seconds 15 --trace 0
#
# Every build artifact, cache and trace file stays under .bench_build in the
# checkout; the build needs no network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
