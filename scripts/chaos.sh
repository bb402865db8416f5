#!/bin/sh
# Chaos harness: the cross-library sweep and the Figure 10 workload on
# a deterministically faulty network with reliable transport, asserting
# bit-identical results against fault-free runs.  The crashy and flaky
# profiles add fail-stop faults: the crash sweep and the elastic
# recovery experiment assert detection, group shrink and deterministic
# degraded replay on top.
#
# Usage:
#   scripts/chaos.sh                     # default seed 1, lossy profile
#   scripts/chaos.sh -seed 7 -profile mild
#   scripts/chaos.sh -seed 3 -profile random -v
#   scripts/chaos.sh -seed 7 -profile crashy
set -eu
cd "$(dirname "$0")/.."

seed=1
profile=lossy
verbose=
while [ $# -gt 0 ]; do
	case "$1" in
	-seed)
		seed="$2"
		shift 2
		;;
	-profile)
		profile="$2"
		shift 2
		;;
	-v)
		verbose=-v
		shift
		;;
	*)
		echo "usage: scripts/chaos.sh [-seed N] [-profile mild|lossy|random|crashy|flaky] [-v]" >&2
		exit 2
		;;
	esac
done

echo "chaos: seed=$seed profile=$profile" >&2
CHAOS_SEED="$seed" CHAOS_PROFILE="$profile" \
	go test $verbose -run Chaos ./internal/crosstest/ ./internal/exp/
echo "chaos: OK" >&2
