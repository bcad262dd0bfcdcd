#!/usr/bin/env bash
# Builds the end-to-end benchmark from source inside the checkout and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper_mix --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-mod=mod
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Let a fresh build's cache writes reach the disk before anything is timed.
sync
exec "$out/perfbench" "$@"
