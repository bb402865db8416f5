package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"metachaos/internal/mpsim"
)

// TestScheduleCacheGrowIncarnations pins the repair-donor lifecycle the
// elastic grow path depends on: AdvanceIncarnation demotes the old
// generation to the stale set instead of dropping it, Get never serves
// stale entries, TakeStale hands each donor out exactly once, a
// same-incarnation advance is a no-op, and a donor left unclaimed
// across two membership changes is gone.
func TestScheduleCacheGrowIncarnations(t *testing.T) {
	cache := NewScheduleCache()
	old := &Schedule{elem: Float64}
	if err := cache.Put("vec", Float64, old); err != nil {
		t.Fatal(err)
	}

	cache.AdvanceIncarnation(1)
	if cache.Len() != 0 {
		t.Fatalf("advance left %d current entries, want 0", cache.Len())
	}
	builds := 0
	s, err := cache.Get("vec", Float64, func() (*Schedule, error) {
		builds++
		return &Schedule{elem: Float64}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s == old {
		t.Fatal("Get served a stale entry from the previous incarnation")
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want a rebuild after the advance", builds)
	}

	// The donor is still claimable after Get repopulated the key, and
	// only once.
	if got := cache.TakeStale("vec", Float64); got != old {
		t.Fatalf("TakeStale = %p, want the previous incarnation's entry %p", got, old)
	}
	if got := cache.TakeStale("vec", Float64); got != nil {
		t.Fatal("TakeStale handed the same donor out twice")
	}

	// Re-advancing to the incarnation the cache is already on keeps the
	// current entries: recovery loops call this before every lookup.
	cache.AdvanceIncarnation(1)
	if _, err := cache.Get("vec", Float64, func() (*Schedule, error) {
		t.Error("same-incarnation advance dropped a current entry")
		return &Schedule{elem: Float64}, nil
	}); err != nil {
		t.Fatal(err)
	}

	// Two membership changes without a claim: the donor from the first
	// is too far gone and is dropped.
	cache.AdvanceIncarnation(2)
	cache.AdvanceIncarnation(3)
	if got := cache.TakeStale("vec", Float64); got != nil {
		t.Fatal("a donor two incarnations back survived")
	}
	if got := cache.Incarnation(); got != 3 {
		t.Fatalf("Incarnation = %d, want 3", got)
	}
}

// randomPartition splits n elements over parts ranks, every share >= 1.
func randomPartition(rng *rand.Rand, n, parts int) []int {
	counts := make([]int, parts)
	for i := range counts {
		counts[i] = 1
	}
	for i := parts; i < n; i++ {
		counts[rng.Intn(parts)]++
	}
	return counts
}

// TestRepairMatchesRebuild drives randomized boundary shifts through
// both paths: Repair patching a cloned schedule built for the old
// routing, and NewScheduleFromRoutes building fresh from the new map.
// The two must agree byte-for-byte in Canonical form on every rank —
// the property that lets the grow path skip the collective rebuild.
func TestRepairMatchesRebuild(t *testing.T) {
	const ranks = 4
	mpsim.RunSPMD(mpsim.SP2(), ranks, func(p *mpsim.Proc) {
		g := SingleProgram(p.Comm())
		world := make([]int, ranks)
		for i := range world {
			world[i] = i
		}
		// Same seed on every rank: route maps are SPMD-replicated.
		rng := rand.New(rand.NewSource(20260809))
		for trial := 0; trial < 25; trial++ {
			n := 64 + rng.Intn(512)
			src := randomPartition(rng, n, ranks)
			dstOld := randomPartition(rng, n, ranks)
			// Perturb a few boundaries to get a small, realistic delta.
			dstNew := append([]int(nil), dstOld...)
			for m := 0; m < 1+rng.Intn(3); m++ {
				i := rng.Intn(ranks - 1)
				if dstNew[i] > 1 {
					dstNew[i]--
					dstNew[i+1]++
				}
			}
			rmOld, err := BlockRoutes(src, dstOld, world, world)
			if err != nil {
				panic(err)
			}
			rmNew, err := BlockRoutes(src, dstNew, world, world)
			if err != nil {
				panic(err)
			}

			built, err := NewScheduleFromRoutes(g, rmNew, Float64, p.WorldRank())
			if err != nil {
				panic(err)
			}
			donor, err := NewScheduleFromRoutes(g, rmOld, Float64, p.WorldRank())
			if err != nil {
				panic(err)
			}
			patched := donor.Clone()
			if err := patched.Repair(rmOld.Diff(rmNew), g.View()); err != nil {
				panic(err)
			}
			if !bytes.Equal(patched.Canonical(), built.Canonical()) {
				panic(fmt.Sprintf("trial %d rank %d: repaired schedule diverges from rebuild (src=%v dstOld=%v dstNew=%v)",
					trial, p.Rank(), src, dstOld, dstNew))
			}
			// The donor itself is untouched: Clone isolated the patch.
			orig, err := NewScheduleFromRoutes(g, rmOld, Float64, p.WorldRank())
			if err != nil {
				panic(err)
			}
			if !bytes.Equal(donor.Canonical(), orig.Canonical()) {
				panic(fmt.Sprintf("trial %d: Repair through a clone mutated the donor", trial))
			}
		}
	})
}

// TestRepairBeforeRebind is the elastic grow order (exp/grow.go): a
// schedule built over three ranks is repaired through the four-rank
// view while it is still bound to the three-rank union, and only then
// rebound.  Assembly must take its peers from the view, not size
// anything from the union it is about to leave.
func TestRepairBeforeRebind(t *testing.T) {
	mpsim.RunSPMD(mpsim.SP2(), 4, func(p *mpsim.Proc) {
		big := SingleProgram(p.Comm())
		src := []int{20, 20, 20}
		rmOld, _ := BlockRoutes(src, []int{24, 24, 12}, []int{0, 1, 2}, []int{0, 1, 2})
		rmNew, _ := BlockRoutes(src, []int{15, 15, 15, 15}, []int{0, 1, 2}, []int{0, 1, 2, 3})
		want, err := NewScheduleFromRoutes(big, rmNew, Float64, p.WorldRank())
		if err != nil {
			panic(err)
		}
		if p.Rank() == 3 {
			return // the joiner has nothing to repair
		}
		small := SingleProgram(p.Comm().Sub([]int{0, 1, 2}))
		got, err := NewScheduleFromRoutes(small, rmOld, Float64, p.WorldRank())
		if err != nil {
			panic(err)
		}
		if err := got.Repair(rmOld.Diff(rmNew), big.View()); err != nil {
			panic(err)
		}
		got.Rebind(big.Union)
		if !bytes.Equal(got.Canonical(), want.Canonical()) {
			panic(fmt.Sprintf("rank %d: schedule repaired through the grown view diverges from a fresh build", p.Rank()))
		}
	})
}

// TestRepairOrRebuildPolicy pins the fallback decision: a small delta
// repairs (no rebuild call), an identical map repairs with zero
// changes, and a delta above maxRepairFrac falls back to the rebuild.
func TestRepairOrRebuildPolicy(t *testing.T) {
	// 8 ranks: a one-element boundary shift re-offsets one downstream
	// part, so the changed fraction is ~1/8 — comfortably under the
	// default 0.25 threshold (at 4 even parts it would sit just above).
	const ranks = 8
	mpsim.RunSPMD(mpsim.SP2(), ranks, func(p *mpsim.Proc) {
		g := SingleProgram(p.Comm())
		world := []int{0, 1, 2, 3, 4, 5, 6, 7}
		even := []int{16, 16, 16, 16, 16, 16, 16, 16}
		near := []int{15, 17, 16, 16, 16, 16, 16, 16} // ~1/8 re-routed
		far := []int{2, 2, 2, 2, 2, 2, 2, 114}        // almost everything re-routed
		rmEven, _ := BlockRoutes(even, even, world, world)
		rmNear, _ := BlockRoutes(even, near, world, world)
		rmFar, _ := BlockRoutes(even, far, world, world)

		cached, err := NewScheduleFromRoutes(g, rmEven, Float64, p.WorldRank())
		if err != nil {
			panic(err)
		}
		rebuilds := 0
		rebuildFor := func(rm *RouteMap) func() (*Schedule, error) {
			return func() (*Schedule, error) {
				rebuilds++
				return NewScheduleFromRoutes(g, rm, Float64, p.WorldRank())
			}
		}

		s, repaired, err := RepairOrRebuild(cached, rmNear, g.View(), rebuildFor(rmNear))
		if err != nil {
			panic(err)
		}
		if !repaired || rebuilds != 0 {
			panic(fmt.Sprintf("small delta took the rebuild path (repaired=%v rebuilds=%d)", repaired, rebuilds))
		}
		want, _ := NewScheduleFromRoutes(g, rmNear, Float64, p.WorldRank())
		if !bytes.Equal(s.Canonical(), want.Canonical()) {
			panic("policy repair diverges from a fresh build")
		}

		// Zero delta still counts as a repair — and leaves the routing
		// untouched.
		s, repaired, err = RepairOrRebuild(cached, rmEven, g.View(), rebuildFor(rmEven))
		if err != nil || !repaired {
			panic(fmt.Sprintf("identical routing: repaired=%v err=%v", repaired, err))
		}
		if !bytes.Equal(s.Canonical(), cached.Canonical()) {
			panic("zero-delta repair changed the schedule")
		}

		// Above the policy threshold the collective rebuild wins.
		s, repaired, err = RepairOrRebuild(cached, rmFar, g.View(), rebuildFor(rmFar))
		if err != nil {
			panic(err)
		}
		if repaired || rebuilds != 1 {
			panic(fmt.Sprintf("large delta avoided the rebuild (repaired=%v rebuilds=%d)", repaired, rebuilds))
		}
		wantFar, _ := NewScheduleFromRoutes(g, rmFar, Float64, p.WorldRank())
		if !bytes.Equal(s.Canonical(), wantFar.Canonical()) {
			panic("fallback rebuild diverges from a fresh build")
		}

		// A cold cache (nil schedule) always rebuilds.
		_, repaired, err = RepairOrRebuild(nil, rmNear, g.View(), rebuildFor(rmNear))
		if err != nil || repaired {
			panic(fmt.Sprintf("nil cached entry reported a repair (err=%v)", err))
		}
	})
}
