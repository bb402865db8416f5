#!/bin/sh
# Coverage gate: run the full test suite with statement coverage and
# fail if the total drops below the recorded baseline.  The profile is
# left in coverage.out for inspection (and CI uploads it as an
# artifact).
#
# Usage:
#   scripts/coverage.sh            # default baseline
#   COVER_MIN=81.0 scripts/coverage.sh
set -eu
cd "$(dirname "$0")/.."

# Baseline recorded 2026-10-15 (PR 25) at 81.1% total; the gate sits
# slightly below to absorb line-count drift from unrelated edits.  Raise
# it as coverage grows — never lower it to get a change in.
min="${COVER_MIN:-80.0}"

go test -coverprofile=coverage.out ./...
total=$(go tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
echo "coverage: total ${total}% (baseline ${min}%)"
if awk -v t="$total" -v m="$min" 'BEGIN { exit !(t + 0 < m + 0) }'; then
	echo "coverage: total ${total}% fell below the ${min}% baseline" >&2
	exit 1
fi
