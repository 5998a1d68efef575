#!/usr/bin/env bash
# Builds the benchmark and the ivliw-bench CLI from the checkout's sources,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Build outputs, the Go build cache and
# every scratch directory live under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/ivliw-bench" ivliw/cmd/ivliw-bench) >&2
exec "$out/perfbench" -root "$root" -bin "$out" "$@"
