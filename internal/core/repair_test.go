package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"metachaos/internal/mpsim"
)

// fromRoutes assembles world rank myWorld's schedule straight from a
// route map over g's union: the fresh build the repair tests compare
// a patched schedule against.
func fromRoutes(g *Coupling, rm *RouteMap, myWorld int) *Schedule {
	s := &Schedule{union: g.Union, elems: rm.Elems, elem: Float64, routes: rm, myWorld: myWorld}
	if err := s.assembleFromRoutes(g.View()); err != nil {
		panic(err)
	}
	return s
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
// routing, and a fresh assembly from the new map.  The two must agree
// byte-for-byte in Canonical form on every rank — the property that
// lets a donor repair skip the collective rebuild.
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

			built := fromRoutes(g, rmNew, p.WorldRank())
			donor := fromRoutes(g, rmOld, p.WorldRank())
			patched := donor.Clone()
			if err := patched.Repair(rmOld.Diff(rmNew), g.View()); err != nil {
				panic(err)
			}
			if !bytes.Equal(patched.Canonical(), built.Canonical()) {
				panic(fmt.Sprintf("trial %d rank %d: repaired schedule diverges from rebuild (src=%v dstOld=%v dstNew=%v)",
					trial, p.Rank(), src, dstOld, dstNew))
			}
			// The donor itself is untouched: Clone isolated the patch.
			if orig := fromRoutes(g, rmOld, p.WorldRank()); !bytes.Equal(donor.Canonical(), orig.Canonical()) {
				panic(fmt.Sprintf("trial %d: Repair through a clone mutated the donor", trial))
			}
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

		cached := fromRoutes(g, rmEven, p.WorldRank())
		rebuilds := 0
		rebuildFor := func(rm *RouteMap) func() (*Schedule, error) {
			return func() (*Schedule, error) {
				rebuilds++
				return fromRoutes(g, rm, p.WorldRank()), nil
			}
		}

		s, repaired, err := RepairOrRebuild(cached, rmNear, g.View(), rebuildFor(rmNear))
		if err != nil {
			panic(err)
		}
		if !repaired || rebuilds != 0 {
			panic(fmt.Sprintf("small delta took the rebuild path (repaired=%v rebuilds=%d)", repaired, rebuilds))
		}
		if want := fromRoutes(g, rmNear, p.WorldRank()); !bytes.Equal(s.Canonical(), want.Canonical()) {
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
		if want := fromRoutes(g, rmFar, p.WorldRank()); !bytes.Equal(s.Canonical(), want.Canonical()) {
			panic("fallback rebuild diverges from a fresh build")
		}

		// A cold cache (nil schedule) always rebuilds.
		_, repaired, err = RepairOrRebuild(nil, rmNear, g.View(), rebuildFor(rmNear))
		if err != nil || repaired {
			panic(fmt.Sprintf("nil cached entry reported a repair (err=%v)", err))
		}
	})
}
