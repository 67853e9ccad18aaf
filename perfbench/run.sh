#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run from the
# repository root. Build products and the Go build cache stay under
# $CARGO_TARGET_DIR (default .bench_build) so nothing outside the
# checkout is written.
set -euo pipefail
root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
