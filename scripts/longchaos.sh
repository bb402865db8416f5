#!/bin/sh
# Chaos soak: the chaos suite across many seeds, rotating through every
# fault profile — message faults (mild/lossy/random) and fail-stop
# crashes (crashy/flaky) alike.  Failing regimes are recorded in the
# -out file together with their logs, so a nightly failure reproduces
# locally with a one-liner:
#
#   scripts/chaos.sh -seed <seed> -profile <profile>
#
# Usage:
#   scripts/longchaos.sh                 # 100 seeds
#   scripts/longchaos.sh -seeds 20 -out failures.txt
set -u
cd "$(dirname "$0")/.."

seeds=100
out=longchaos-failures.txt
while [ $# -gt 0 ]; do
	case "$1" in
	-seeds)
		seeds="$2"
		shift 2
		;;
	-out)
		out="$2"
		shift 2
		;;
	*)
		echo "usage: scripts/longchaos.sh [-seeds N] [-out FILE]" >&2
		exit 2
		;;
	esac
done

profiles="lossy mild random crashy flaky"
nprof=5
: >"$out"
fail=0
run=0
seed=1
while [ "$seed" -le "$seeds" ]; do
	i=$((seed % nprof + 1))
	profile=$(echo "$profiles" | cut -d' ' -f"$i")
	run=$((run + 1))
	log=$(mktemp)
	if CHAOS_SEED="$seed" CHAOS_PROFILE="$profile" \
		go test -count=1 -run Chaos ./internal/crosstest/ ./internal/exp/ >"$log" 2>&1; then
		echo "longchaos: seed=$seed profile=$profile OK" >&2
	else
		fail=$((fail + 1))
		{
			echo "=== seed=$seed profile=$profile  (reproduce: scripts/chaos.sh -seed $seed -profile $profile)"
			cat "$log"
			echo
		} >>"$out"
		echo "longchaos: seed=$seed profile=$profile FAIL" >&2
	fi
	rm -f "$log"
	seed=$((seed + 1))
done

if [ "$fail" -gt 0 ]; then
	echo "longchaos: $fail of $run regimes failed; see $out" >&2
	exit 1
fi
rm -f "$out"
echo "longchaos: all $run regimes passed" >&2
