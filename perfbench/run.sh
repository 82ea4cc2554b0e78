#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload dense-serial --seed 1 --seconds 20 --trace 0
#
# Every build artifact — the Go build cache included — stays under
# .bench_build/ in the checkout. Outside a checkout of the ddprof module
# (no ../go.mod next to this directory) the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
