#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it, passing
# every argument through, e.g.
#
#   bash perfbench/run.sh --workload serve-longtail --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare .bench_build/results-a .bench_build/results-b
#
# Run it from the repository root. The build cache, the binary, result
# records and span files all go to .bench_build/ under that root.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the toolchain offline and every file it writes inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
