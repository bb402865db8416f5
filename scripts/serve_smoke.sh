#!/bin/sh
# Coupling-service smoke test: boot mcserved on a throwaway unix
# socket, drive it with a seeded mcload run that replays every
# tenant's op sequence through serve.Model (bit-identical hashes
# required), and assert the cross-tenant schedule cache actually got
# hits.  The seed pins the fill values and the chaos leg's faults, so a
# failure reproduces locally with this script and the same seed.
#
# Usage: scripts/serve_smoke.sh [seed]   (default 20260809)
set -eu
cd "$(dirname "$0")/.."
seed="${1:-20260809}"

sock="$(mktemp -u /tmp/mcserved.smoke.XXXXXX.sock)"
summary="$(mktemp /tmp/mcload.smoke.XXXXXX.json)"

go build -o /tmp/mcserved.smoke ./cmd/mcserved
go build -o /tmp/mcload.smoke ./cmd/mcload

/tmp/mcserved.smoke -network unix -addr "$sock" &
served=$!
# Kill and reap the daemon on ANY exit — including set -e failures and
# runner cancellation (INT/TERM), which bypass a plain EXIT trap in
# POSIX sh — so CI never leaks a resident daemon or a stale socket.
cleanup() {
	kill "$served" 2>/dev/null || true
	wait "$served" 2>/dev/null || true
	rm -f "$sock" "$summary"
}
trap cleanup EXIT
trap 'cleanup; trap - EXIT; exit 130' INT
trap 'cleanup; trap - EXIT; exit 143' TERM
for _ in $(seq 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "serve_smoke: daemon never came up" >&2; exit 1; }

# Steady profile: tenants hold couplings open and stream moves.
/tmp/mcload.smoke -network unix -addr "$sock" \
	-tenants 4 -moves 32 -seed "$seed" -profile steady -check \
	-json > "$summary"
cat "$summary" >&2

# Churn profile: couplings close and reopen per move, exercising warm
# reopens and fresh-object semantics under the same verification.
/tmp/mcload.smoke -network unix -addr "$sock" \
	-tenants 3 -moves 18 -seed "$seed" -profile churn -check >&2

# The steady run's summary must show verified hashes and real schedule
# reuse: with 4 tenants declaring the same 3 catalog pairs, most opens
# must come out of the shared cache.
grep -q '"verified": true' "$summary" || {
	echo "serve_smoke: summary does not say verified" >&2; exit 1; }
hit=$(sed -n 's/.*"cache_hit_rate": \([0-9.]*\).*/\1/p' "$summary")
case "$hit" in
""|0|0.0) echo "serve_smoke: cache hit rate is $hit, want > 0" >&2; exit 1 ;;
esac

kill "$served" 2>/dev/null
wait "$served" 2>/dev/null || true

# Chaos leg: a fresh daemon rigged to panic its first world at batch 4
# (-flush -1ns so every op is its own batch), driven through seeded
# wire faults.  The clients must reconnect/resume/retry their way to
# bit-identical hashes, and the run must actually have exercised
# recovery (reconnects > 0).
csock="$(mktemp -u /tmp/mcserved.chaos.XXXXXX.sock)"
csummary="$(mktemp /tmp/mcload.chaos.XXXXXX.json)"
/tmp/mcserved.smoke -network unix -addr "$csock" -panic-batch 4 -flush -1ns -quiet &
cserved=$!
cleanup2() {
	kill "$cserved" 2>/dev/null || true
	wait "$cserved" 2>/dev/null || true
	rm -f "$csock" "$csummary"
}
trap 'cleanup2; cleanup' EXIT
trap 'cleanup2; cleanup; trap - EXIT; exit 130' INT
trap 'cleanup2; cleanup; trap - EXIT; exit 143' TERM
for _ in $(seq 50); do [ -S "$csock" ] && break; sleep 0.1; done
[ -S "$csock" ] || { echo "serve_smoke: chaos daemon never came up" >&2; exit 1; }

/tmp/mcload.smoke -network unix -addr "$csock" \
	-tenants 3 -moves 16 -seed "$seed" -chaos 0.05 -chaos-seed "$seed" -check \
	-json > "$csummary"
cat "$csummary" >&2
grep -q '"verified": true' "$csummary" || {
	echo "serve_smoke: chaos summary does not say verified" >&2; exit 1; }
rec=$(sed -n 's/.*"reconnects": \([0-9]*\).*/\1/p' "$csummary")
case "$rec" in
""|0) echo "serve_smoke: chaos run had $rec reconnects, want > 0" >&2; exit 1 ;;
esac

echo "serve_smoke: OK (seed $seed, cache hit rate $hit, hashes verified; chaos leg: $rec reconnects, hashes verified)" >&2
