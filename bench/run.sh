#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the harness from source inside the
# checkout, then runs it; build cache, module cache, temporaries and the
# binary all live under .bench_build/, so nothing outside the checkout is
# written and no network is touched.
# Run from the repository root: bash bench/run.sh --workload sim_fleet ...
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o "$out/sdfm-bench" .
exec "$out/sdfm-bench" "$@"
