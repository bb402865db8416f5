GO ?= go

.PHONY: build test check chaos ab coverage report

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Formatting + vet + race-detector test run; the gate to pass before
# sending changes.
check:
	sh scripts/check.sh

# Chaos harness: cross-library sweep + Figure 10 workload under
# deterministic fault injection (CHAOS_SEED / CHAOS_PROFILE).
chaos:
	sh scripts/chaos.sh

# Perf gate: ten alternating pairs of bench/run.sh between the merge
# base with origin/main and this tree (~25 min).  For another base or
# pair count run scripts/ab.sh <base-ref> [pairs].
ab:
	bash scripts/ab.sh "$$(git merge-base origin/main HEAD)"

# Coverage gate: full-suite statement coverage vs the recorded baseline.
coverage:
	sh scripts/coverage.sh

report:
	$(GO) run ./cmd/mcreport > EXPERIMENTS.md
