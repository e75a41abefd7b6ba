#!/usr/bin/env bash
# Builds envbench from the sources of the checkout this script sits in and
# runs it from the checkout's root, passing every argument through:
#
#   bash bench/run.sh --workload cold_paper --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file go under
# .bench_build/ at the root of the checkout. The build fails, and the
# script exits non-zero without running anything, when the module's
# sources are not there.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# Build with the installed toolchain and nothing fetched.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/bench" build -o "$out/envbench" ./envbench
cd "$root"
exec "$out/envbench" "$@"
