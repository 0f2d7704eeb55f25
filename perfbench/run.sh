#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 0 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary)
# stays under $CARGO_TARGET_DIR, default .bench_build, so nothing
# outside the checkout is touched.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local
go build -C perfbench -o "$out/edcperf" . >&2
exec "$out/edcperf" -artifacts "$out/perfbench" "$@"
