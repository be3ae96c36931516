#!/usr/bin/env bash
# Builds the linkpad benchmark from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash bench/run.sh --workload link-paper --seed 3 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary) goes under
# .bench_build/ in the checkout. Without the linkpad module beside the
# bench/ directory the build fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export GOWORK=off
export GOFLAGS=

go -C "$root/bench" build -o "$out/linkpad-bench" .
exec "$out/linkpad-bench" "$@"
