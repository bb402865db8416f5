package exp

import (
	"testing"

	"metachaos/internal/faultsim"
)

// TestElasticGrowBitIdentical is the scale-out tentpole's end-to-end
// assertion: a run that starts on 2 servers and grows to 4 mid-run —
// repairing its cached schedules from the stale donors instead of
// recomputing them collectively — must finish with exactly the
// ResultHash of a fault-free run that had all 4 servers from t=0.
// Checked fault-free and under the pinned "growth" chaos profile's
// message faults, at one scheduler shard and at four.
func TestElasticGrowBitIdentical(t *testing.T) {
	cfg := ElasticGrowConfig{StartProcs: 2, GrowProcs: 2, Iters: 5, Seed: chaosSeed(t, 11)}
	grown, clean := ElasticGrow(cfg)

	if clean.ResultHash == 0 {
		t.Fatal("full-size reference run produced a zero result hash")
	}
	if grown.ResultHash != clean.ResultHash {
		t.Errorf("grown run's result hash %#x, want full-size %#x (bit-identical)",
			grown.ResultHash, clean.ResultHash)
	}
	if grown.FinalServers != cfg.StartProcs+cfg.GrowProcs {
		t.Errorf("finished with %d servers, want %d", grown.FinalServers, cfg.StartProcs+cfg.GrowProcs)
	}
	if grown.Grows < 1 {
		t.Error("no growth slot observed; joins never fired")
	}
	if len(grown.Joins) != cfg.GrowProcs {
		t.Errorf("join history %+v, want %d joins", grown.Joins, cfg.GrowProcs)
	}
	for _, j := range grown.Joins {
		if j.Rank <= cfg.StartProcs || j.Rank > cfg.StartProcs+cfg.GrowProcs {
			t.Errorf("join hit world rank %d, want a dormant server rank in (%d,%d]",
				j.Rank, cfg.StartProcs, cfg.StartProcs+cfg.GrowProcs)
		}
	}
	// Every growth slot repairs the client's matrix and vector
	// schedules from their stale donors — never a collective rebuild.
	if want := 2 * grown.Grows; grown.Repaired != want {
		t.Errorf("client repaired %d schedules across %d grows, want %d",
			grown.Repaired, grown.Grows, want)
	}
	if grown.Makespan <= clean.Makespan {
		t.Errorf("grown makespan %g not above full-size %g (small start costs throughput)",
			grown.Makespan, clean.Makespan)
	}

	// Same seed, fresh everything: identical outcome.
	grown2 := runElasticGrow(cfg)
	if grown2.ResultHash != grown.ResultHash || grown2.Makespan != grown.Makespan ||
		grown2.Grows != grown.Grows || grown2.Repaired != grown.Repaired {
		t.Errorf("nondeterministic replay: hash %#x vs %#x, makespan %g vs %g, grows %d vs %d, repairs %d vs %d",
			grown2.ResultHash, grown.ResultHash, grown2.Makespan, grown.Makespan,
			grown2.Grows, grown.Grows, grown2.Repaired, grown.Repaired)
	}

	// Four scheduler shards: bit-identical to one.
	sharded := cfg
	sharded.Shards = 4
	grownN := runElasticGrow(sharded)
	if grownN.ResultHash != grown.ResultHash || grownN.Makespan != grown.Makespan {
		t.Errorf("sharded run diverged: hash %#x vs serial %#x, makespan %g vs %g",
			grownN.ResultHash, grown.ResultHash, grownN.Makespan, grown.Makespan)
	}

	// Under the pinned growth profile's message faults with reliable
	// transport: still bit-identical, at one shard and at four.
	faulty := cfg
	faulty.Fault = faultsim.Growth(cfg.Seed)
	grownF := runElasticGrow(faulty)
	if grownF.ResultHash != clean.ResultHash {
		t.Errorf("grown run under growth profile hashed %#x, want %#x (bit-identical)",
			grownF.ResultHash, clean.ResultHash)
	}
	faultyN := faulty
	faultyN.Shards = 4
	grownFN := runElasticGrow(faultyN)
	if grownFN.ResultHash != grownF.ResultHash || grownFN.Makespan != grownF.Makespan {
		t.Errorf("sharded faulty run diverged: hash %#x vs serial %#x, makespan %g vs %g",
			grownFN.ResultHash, grownF.ResultHash, grownFN.Makespan, grownF.Makespan)
	}
}

// TestChaosElasticGrow is the chaos-matrix entry (chaos.sh picks it up
// via -run Chaos): scale-out under seed-driven message faults must
// stay bit-identical to the full-size fault-free run and replay
// deterministically.
func TestChaosElasticGrow(t *testing.T) {
	seed := chaosSeed(t, 13)
	cfg := ElasticGrowConfig{
		StartProcs: 2, GrowProcs: 2, Iters: 5, Seed: seed,
		Fault: faultsim.Growth(seed),
	}
	grown, clean := ElasticGrow(cfg)
	if clean.ResultHash == 0 {
		t.Fatal("full-size reference run produced a zero result hash")
	}
	if grown.ResultHash != clean.ResultHash {
		t.Errorf("result hash %#x under faults, want full-size fault-free %#x (bit-identical)",
			grown.ResultHash, clean.ResultHash)
	}
	if grown.Grows < 1 || grown.Repaired < 2 {
		t.Errorf("grows=%d repaired=%d; the growth profile must exercise the repair path",
			grown.Grows, grown.Repaired)
	}

	grown2 := runElasticGrow(cfg)
	if grown2.ResultHash != grown.ResultHash || grown2.Makespan != grown.Makespan {
		t.Errorf("nondeterministic replay: hash %#x vs %#x, makespan %g vs %g",
			grown2.ResultHash, grown.ResultHash, grown2.Makespan, grown.Makespan)
	}
}

// TestElasticJoinsAlwaysHitDormantServers pins the join-schedule
// derivation: every seed must target only the dormant server world
// ranks (never the client or an initial member) and land inside the
// first two iteration slots, so the run always has iterations left to
// exercise the repaired schedules.
func TestElasticJoinsAlwaysHitDormantServers(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for _, sp := range []int{1, 2, 8} {
			for _, gp := range []int{1, 2, 4} {
				for g, j := range ElasticJoins(seed, sp, gp) {
					if j.Rank != 1+sp+g {
						t.Fatalf("seed %d start %d: joiner %d got world rank %d, want %d",
							seed, sp, g, j.Rank, 1+sp+g)
					}
					lo, hi := elasticSetup, elasticSetup+2*elasticSlot
					if j.At <= lo || j.At >= hi {
						t.Fatalf("seed %d: join at %g outside (%g,%g)", seed, j.At, lo, hi)
					}
				}
			}
		}
	}
}
