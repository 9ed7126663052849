#!/usr/bin/env bash
# Same-runner A/B gate: builds the pinned benchmarks' test binaries in two
# trees of this module, runs them in interleaved pairs on this machine and
# lets benchdiff judge the result.
#
#   bash cmd/benchdiff/ab.sh <base-tree> <head-tree>
#
# Run it from the directory that should hold the output: the build cache,
# the binaries and both sides' raw `-test.bench` text go to .bench_build/ab/
# under it. It exits non-zero when benchdiff finds a regression.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: bash cmd/benchdiff/ab.sh <base-tree> <head-tree>" >&2
	exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build/ab"

# The pinned set follows the rl-longtail CPU profile (spot training 55%, on
# its own goroutine and the step's critical path; the scheduler step 32%;
# harvest 6%) plus the serving path, and the model kernels under all of
# them. One line per package under internal/: the package, then the exact
# names of its pinned benchmarks. A name may end in one sub-benchmark, as
# in BenchmarkSoftmax/kernel; then every name of its line must, because a
# line runs every combination of its names' levels (see runside), and go
# test reports nothing for a benchmark matched at the first level alone
# when the pattern has a second. A benchmark that only head has is
# reported as new and not gated, so a newly pinned one, such as
# BenchmarkTopK/kernel, has no base side in its first run.
pinned=(
	"sched BenchmarkBatchStep BenchmarkBatchStep16 BenchmarkBatchStep64"
	"specdec BenchmarkSpecRound BenchmarkVanillaStep BenchmarkStepBatch"
	"draft BenchmarkEagleTrainBatch BenchmarkHarvestExamples"
	"spot BenchmarkRunWindow"
	"serving BenchmarkStreamServe"
	"prefixcache BenchmarkLookup"
	"metrics BenchmarkHistogramRecord"
	"model BenchmarkTableAccumulate/kernel BenchmarkTableAddGrad/kernel BenchmarkSoftmax/kernel BenchmarkTopK/kernel"
)
# Twenty pairs let the nine-in-ten rule fail a clear slowdown while a 0.25 s
# sample keeps a run within a few minutes on two cores. One CPU keeps the
# samples free of scheduling between goroutines.
pairs=20
benchtime=0.25s
cpu=1

# benchpattern <names>: the -test.bench regexp of a pinned line. go test
# splits that regexp at each slash outside parentheses and matches each
# level of a benchmark's name against its own part, so the names' first
# levels form one group and their sub-benchmarks a second:
# "A/kernel B/kernel" gives ^(A|B)$/^(kernel)$.
benchpattern() {
	local top=() sub=() name nsub=0
	for name in $1; do
		top+=("${name%%/*}")
		if [[ $name == */* ]]; then
			((nsub += 1))
			[[ " ${sub[*]} " == *" ${name#*/} "* ]] || sub+=("${name#*/}")
		fi
	done
	local IFS='|'
	if ((nsub == 0)); then
		echo "^(${top[*]})\$"
	elif ((nsub == ${#top[@]})); then
		echo "^(${top[*]})\$/^(${sub[*]})\$"
	else
		echo "ab.sh: pinned line \"$1\" mixes names with and without a sub-benchmark" >&2
		return 1
	fi
}

rm -rf "$out/base" "$out/head" "$out/base.txt" "$out/head.txt"
mkdir -p "$out/base" "$out/head" "$out/tmp"
# Keep the toolchain offline and every file it writes under $out, and let
# no setting from the caller's environment change the build.
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$src" && go build -o "$out/benchdiff" .)
patterns=()
for entry in "${pinned[@]}"; do
	read -r pkg names <<<"$entry"
	benchpattern "$names" >/dev/null
	for side in base head; do
		tree=${!side}
		(cd "$tree" && go test -c -o "$out/$side/$pkg.test" "./internal/$pkg")
	done
	for name in $names; do
		patterns+=("^$name\$")
	done
done

# runside <side> <pkg> <names>: one sample of each named benchmark, run
# from the package directory like go test does.
runside() {
	local tree=${!1} pattern
	pattern=$(benchpattern "$3")
	(cd "$tree/internal/$2" && "$out/$1/$2.test" -test.run '^$' -test.bench "$pattern" \
		-test.benchmem -test.benchtime "$benchtime" -test.cpu "$cpu" -test.timeout 10m) >>"$out/$1.txt"
}

start=$SECONDS
for ((i = 1; i <= pairs; i++)); do
	for entry in "${pinned[@]}"; do
		read -r pkg names <<<"$entry"
		if ((i % 2)); then
			runside base "$pkg" "$names"
			runside head "$pkg" "$names"
		else
			runside head "$pkg" "$names"
			runside base "$pkg" "$names"
		fi
	done
	echo "ab.sh: pair $i/$pairs done after $((SECONDS - start)) s" >&2
done

"$out/benchdiff" "$out/base.txt" "$out/head.txt" "${patterns[@]}"
