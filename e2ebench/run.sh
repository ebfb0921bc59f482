#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload udg-uniform-250 --seed 1 --seconds 55 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build), including the Go build cache.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache
export GOTMPDIR=$out/tmp
export GOMODCACHE=$out/modcache
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" --out "$out" "$@"
