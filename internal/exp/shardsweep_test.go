package exp

import (
	"runtime"
	"strconv"
	"testing"

	"metachaos/internal/faultsim"
)

// The sharded scheduler's hard invariant is host-parallelism
// independence: with a pinned shard count, a run must produce
// bit-identical virtual-time results no matter how many OS threads
// execute it.  The sweep pins seeds and crosses {fault-free, lossy,
// crashy} scenarios with the repo's coupled library pairings
// (Multiblock Parti client vs HPF server for the Figure-10 workload,
// HPF vs HPF for the elastic crash workload), comparing ResultHash and
// virtual makespan at four shards between GOMAXPROCS=1 and
// GOMAXPROCS=4, across a replay, and against the same run as one
// inline shard.  Shard counts are pinned through MPSIM_SHARDS.  The
// Figure-10 product does not depend on process counts either: its
// 8+64-process row must hash as its 2+8 one does.

// withGOMAXPROCS runs f at the given host parallelism and restores it.
func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

type sweepOutcome struct {
	hash     uint64
	makespan float64
}

func TestShardedDeterminismSweep(t *testing.T) {
	const shards = 4
	faultFree := func(clients, servers int) func() sweepOutcome {
		return func() sweepOutcome {
			b, st := runClientServer(CSConfig{
				ClientProcs: clients, ServerProcs: servers, Vectors: 4,
				Fingerprint: true,
			})
			return sweepOutcome{b.ResultHash, st.MakespanSeconds}
		}
	}
	cases := []struct {
		name string
		// shardTimed marks the runs whose makespan depends on the shard
		// count (2+8: 0.30661 s at one, 0.30298 s at four; 8+64:
		// 0.45150 s at one, 0.45139 s at four; same hash): on the
		// perfect network a same-shard message is visible from its send
		// and a cross-shard one from its arrival, so the move executor's
		// Waitany can pick lanes in another order — ROADMAP item 3's
		// perfect-vs-netLayer fork.
		shardTimed bool
		run        func() sweepOutcome
	}{
		{"figure10/fault-free", true, faultFree(2, 8)},
		{"figure10/8x64", true, faultFree(8, 64)},
		{"figure10/lossy", false, func() sweepOutcome {
			b, st := runClientServer(CSConfig{
				ClientProcs: 2, ServerProcs: 8, Vectors: 4,
				Fingerprint: true,
				Fault:       mildCut(),
				Reliable:    true,
			})
			return sweepOutcome{b.ResultHash, st.MakespanSeconds}
		}},
		{"elastic/crashy", false, func() sweepOutcome {
			cfg := ElasticConfig{ServerProcs: 4, Iters: 6, Seed: 7}
			c := ElasticCrash(cfg.Seed, cfg.ServerProcs)
			prof := (&faultsim.Profile{Seed: cfg.Seed}).WithCrash(c.Rank, c.At)
			res := runElastic(cfg, prof.CrashPlan())
			return sweepOutcome{res.ResultHash, res.Makespan}
		}},
	}
	hashes := map[string]uint64{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("MPSIM_SHARDS", "1")
			one := tc.run()
			if one.hash == 0 {
				t.Fatal("run produced a zero result hash; fingerprinting broken")
			}
			hashes[tc.name] = one.hash
			t.Setenv("MPSIM_SHARDS", strconv.Itoa(shards))
			var narrow, wide, replay sweepOutcome
			withGOMAXPROCS(1, func() { narrow = tc.run() })
			withGOMAXPROCS(4, func() { wide = tc.run() })
			withGOMAXPROCS(4, func() { replay = tc.run() })
			if narrow != wide {
				t.Errorf("GOMAXPROCS=1 vs 4 diverged: hash %#x vs %#x, makespan %v vs %v",
					narrow.hash, wide.hash, narrow.makespan, wide.makespan)
			}
			if replay != wide {
				t.Errorf("replay diverged: hash %#x vs %#x, makespan %v vs %v",
					replay.hash, wide.hash, replay.makespan, wide.makespan)
			}
			want := one
			if tc.shardTimed {
				want.makespan = wide.makespan
			}
			if wide != want {
				t.Errorf("%d shards vs one diverged: hash %#x vs %#x, makespan %v vs %v",
					shards, wide.hash, one.hash, wide.makespan, one.makespan)
			}
		})
	}
	if a, b := hashes["figure10/fault-free"], hashes["figure10/8x64"]; a != b {
		t.Errorf("Figure 10's product depends on process counts: 2+8 hashes %#x, 8+64 %#x", a, b)
	}
}

// TestFigure10GoldenTracerMeansOneShard pins the tracer rule: an
// attached observability tracer gets the run one inline shard no matter
// what MPSIM_SHARDS asks for, so the profiled Figure-10 run must still
// reproduce the golden trace — recorded before the scheduler had
// shards at all — byte for byte.
func TestFigure10GoldenTracerMeansOneShard(t *testing.T) {
	t.Setenv("MPSIM_SHARDS", "8")
	assertFigure10GoldenTrace(t)
}
