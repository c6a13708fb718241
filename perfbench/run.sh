#!/usr/bin/env bash
# Builds the perfbench harness from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-2srv --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artifact (the binary, the
# Go build cache, the toolchain's config and telemetry files) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
