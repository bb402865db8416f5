#!/bin/sh
# Non-test Go line counts of the packages ROADMAP's line budgets quote,
# counted the same way each time.
set -eu
cd "$(dirname "$0")/../internal"
loc() { for d in "$@"; do ls "$d"/*.go; done | grep -v _test | xargs cat | wc -l; }
echo "core      $(loc core)"
insp=$(loc core seclib distarray gidx lparx pcxxrt)
echo "inspector $((insp + $(wc -l <chaoslib/mclib.go)))"
for p in mpsim serve exp; do
	printf '%-9s %s\n' "$p" "$(loc "$p")"
done
