#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-design --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
