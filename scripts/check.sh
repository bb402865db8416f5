#!/bin/sh
# Repository health gate: formatting, vet, static analysis, the full
# test suite under the race detector, and the codec fuzz seed corpus.
# Run via `make check` or directly.
#
# staticcheck and govulncheck run when installed and are skipped with a
# note otherwise; set REQUIRE_LINT=1 (CI does) to make their absence a
# failure instead.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
elif [ -n "${REQUIRE_LINT:-}" ]; then
	echo "check: staticcheck required (REQUIRE_LINT set) but not installed" >&2
	exit 1
else
	echo "check: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)" >&2
fi

if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
elif [ -n "${REQUIRE_LINT:-}" ]; then
	echo "check: govulncheck required (REQUIRE_LINT set) but not installed" >&2
	exit 1
else
	echo "check: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)" >&2
fi

go test -race ./...
# Codec wire-format fuzz targets: the seed corpus must pass on every
# change (longer fuzzing runs use `go test -fuzz=Fuzz ./internal/codec/`
# or the CI fuzz-smoke job).
go test -run '^Fuzz' ./internal/codec/
# EXPERIMENTS.md is what cmd/mcreport prints; virtual time is
# deterministic, so any difference is a stale file or a changed result.
go run ./cmd/mcreport | diff - EXPERIMENTS.md
# The non-test line counts ROADMAP's budgets quote, so CI logs them.
sh scripts/loc.sh
echo "check: OK"
