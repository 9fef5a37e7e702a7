#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload serve-point --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind goes under $CARGO_TARGET_DIR (default .bench_build): the Go
# build cache, the binary, span dumps and the per-seed checksum store.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/perfbench"

# Keep the toolchain's caches and config inside the output directory,
# and never let it reach for the network.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/perfbench/perfbench" .)
export PERFBENCH_OUT="$out/perfbench"
exec "$out/perfbench/perfbench" "$@"
