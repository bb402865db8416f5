#!/bin/sh
# Non-test Go line counts of the packages ROADMAP's line budgets quote,
# counted the same way each time.
set -eu
cd "$(dirname "$0")/.."
loc() { for d in "$@"; do ls "$d"/*.go; done | grep -v _test | xargs cat | wc -l; }
echo "core      $(cd internal && loc core)"
# The executor's line budget is core + codec: the codec's typed kernels
# are the other half of every move.
echo "codec     $(cd internal && loc codec)"
insp=$(cd internal && loc core seclib distarray gidx lparx pcxxrt)
echo "inspector $((insp + $(wc -l <internal/chaoslib/mclib.go)))"
# hpfrt and mbparti are libraries the inspector line leaves out; ckpt
# and faultsim are the recovery and fault-injection support; bufpool is
# the data plane's memory and obs the tracer.
for p in mpsim serve exp hpfrt mbparti ckpt faultsim bufpool obs; do
	printf '%-9s %s\n' "$p" "$(cd internal && loc "$p")"
done
# The reporting surface: every binary's non-test source, and the
# paper-API shim.
echo "cmd       $(loc cmd/*)"
echo "compat    $(loc compat)"
# Every non-test Go line outside the benchmark module, so a PR's net
# change reads straight off the log.
echo "all       $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' | xargs cat | wc -l)"
# Every test Go line outside the benchmark module.
echo "tests     $(find . -name '*_test.go' ! -path './bench/*' ! -path './.*' | xargs cat | wc -l)"
