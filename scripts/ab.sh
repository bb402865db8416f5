#!/usr/bin/env bash
# Perf gate: paired A/B of the repository's benchmark between a base
# commit and this tree.  Extracts <base-ref> under .bench_build/ab/base,
# runs `bash bench/run.sh --seed 7` in each tree [pairs] times,
# alternating which side goes first, and hands the runs to
# cmd/benchdiff, which reads the bounds from BENCHMARK.json.  Exits
# non-zero only on a resolved regression, a larger share of failed
# operations, or a run that lacks a workload; a difference the pairs
# cannot resolve prints "unresolved" and passes.  A full run takes about
# a minute, so ten pairs take a little over twenty.
#
# Usage: scripts/ab.sh <base-ref> [pairs]     (pairs defaults to 10)
set -euo pipefail
cd "$(dirname "$0")/.."

base_ref="${1:?usage: scripts/ab.sh <base-ref> [pairs]}"
pairs="${2:-10}"
head_dir="$PWD"
out="$PWD/.bench_build/ab"
base_dir="$out/base"

rm -rf "$out"
mkdir -p "$base_dir" "$out/runs"
git archive "$base_ref" | tar -x -C "$base_dir"
echo "ab: base $(git rev-parse --short "$base_ref") in $base_dir, head the tree at $head_dir, $pairs pairs" >&2

run() { # run <side> <dir> <k>
	echo "ab: pair $3 of $pairs: $1" >&2
	# run.sh exits 1 when an operation failed; benchdiff judges that
	# against the other side, and reports a run that printed nothing.
	(cd "$2" && bash bench/run.sh --seed 7) > "$out/runs/$1-$3.txt" ||
		echo "ab: $1 run $3 exited $?" >&2
}
for k in $(seq "$pairs"); do
	if [ $((k % 2)) -eq 1 ]; then
		run base "$base_dir" "$k"
		run head "$head_dir" "$k"
	else
		run head "$head_dir" "$k"
		run base "$base_dir" "$k"
	fi
done

go run ./cmd/benchdiff BENCHMARK.json "$out/runs"
