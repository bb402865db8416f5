#!/bin/sh
# Nightly coupling-service soak: boot mcserved with room for the big
# catalog (160-process sides -> 256-union-rank resident worlds, which
# auto-shard the scheduler) and drive it with verified mcload passes.
# Two legs:
#
#   1. fault-free: steady + churn profiles on the big catalog, -check
#      demanding bit-identical hashes vs serve.Model;
#   2. chaos: a fresh daemon whose first world incarnation is rigged to
#      panic, under seeded wire faults — respawn, journal replay,
#      reconnect and dedup all cross the sharded path, still verified.
#
# Every seed is pinned, so a failing regime reproduces locally with
# exactly the line written to the -out file.
#
# Usage: scripts/serve_soak.sh [-out failures.txt]
set -eu
cd "$(dirname "$0")/.."

out=
if [ "${1:-}" = "-out" ]; then
	out="$2"
	shift 2
fi
fail() {
	echo "serve_soak: FAIL: $1" >&2
	if [ -n "$out" ]; then
		{ echo "$1"; echo "reproduce: $2"; } >> "$out"
	fi
	exit 1
}

go build -o /tmp/mcserved.soak ./cmd/mcserved
go build -o /tmp/mcload.soak ./cmd/mcload

sock="$(mktemp -u /tmp/mcserved.soak.XXXXXX.sock)"
/tmp/mcserved.soak -network unix -addr "$sock" -max-procs 160 -quiet &
served=$!
csock=
cserved=
cleanup() {
	if [ -n "$served" ]; then
		kill "$served" 2>/dev/null || true
		wait "$served" 2>/dev/null || true
	fi
	if [ -n "$cserved" ]; then
		kill "$cserved" 2>/dev/null || true
		wait "$cserved" 2>/dev/null || true
	fi
	rm -f "$sock" "$csock"
}
trap cleanup EXIT
trap 'cleanup; trap - EXIT; exit 130' INT
trap 'cleanup; trap - EXIT; exit 143' TERM
for _ in $(seq 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || fail "daemon never came up" "scripts/serve_soak.sh"

steady="/tmp/mcload.soak -network unix -addr $sock -catalog big -tenants 4 -moves 24 -seed 20260809 -profile steady -check"
$steady >&2 || fail "steady big-catalog soak hash mismatch" "$steady"
churn="/tmp/mcload.soak -network unix -addr $sock -catalog big -tenants 3 -moves 12 -seed 20260810 -profile churn -check"
$churn >&2 || fail "churn big-catalog soak hash mismatch" "$churn"
kill "$served" 2>/dev/null
wait "$served" 2>/dev/null || true
served=

csock="$(mktemp -u /tmp/mcserved.soak-chaos.XXXXXX.sock)"
/tmp/mcserved.soak -network unix -addr "$csock" -max-procs 160 \
	-panic-batch 6 -flush -1ns -quiet &
cserved=$!
for _ in $(seq 50); do [ -S "$csock" ] && break; sleep 0.1; done
[ -S "$csock" ] || fail "chaos daemon never came up" "scripts/serve_soak.sh"
chaos="/tmp/mcload.soak -network unix -addr $csock -catalog big -tenants 3 -moves 12 -seed 20260811 -chaos 0.04 -chaos-seed 20260811 -check"
$chaos >&2 || fail "chaos big-catalog soak hash mismatch or unrecovered fault" "$chaos"

echo "serve_soak: OK (fault-free + chaos legs verified on 256-rank sharded worlds)" >&2
