#!/usr/bin/env bash
# Builds the served-path benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments. Run it from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload ppi-motif --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact goes under .bench_build/ in the checkout:
# the Go build cache, the binary and the WAL directories of the
# read-write workload.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
