#!/usr/bin/env bash
# Builds the benchmark and the nocserve binary from the checkout's
# source, then runs one workload. Run it from the root of the checkout:
#
#   bash e2ebench/run.sh --workload matrix_quick --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" . && go build -o "$out/bin/nocserve" gpunoc/cmd/nocserve) >&2
exec "$out/bin/e2ebench" -expected "$root/e2ebench/expected.json" -nocserve "$out/bin/nocserve" -workdir "$out" "$@"
