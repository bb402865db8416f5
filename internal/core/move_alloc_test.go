package core_test

import (
	"testing"

	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
)

// steadyMoveAllocs runs warm-up collective steps (moves, for most
// callers) in an nprocs world, then counts the heap allocations of the
// whole process over 50 more.
// Rank 0 counts while the other ranks keep step, so the figure covers
// every rank's pack, ship and unpack.  AllocsPerRun pins GOMAXPROCS to 1
// while it counts; one shard keeps the engine on the inline path
// whatever MPSIM_SHARDS says.
func steadyMoveAllocs(m *mpsim.Machine, nprocs, warmup int, build func(p *mpsim.Proc) (move func())) float64 {
	const runs = 50
	var avg float64
	mpsim.Run(mpsim.Config{Machine: m, Shards: 1, Programs: []mpsim.ProgramSpec{{
		Name: "move", Procs: nprocs, Body: func(p *mpsim.Proc) {
			move := build(p)
			// The barrier bounds how far a rank that only sends runs
			// ahead of its receivers, so segments recycle.
			step := func() { move(); p.Comm().Barrier() }
			for i := 0; i < warmup; i++ {
				step()
			}
			if p.Rank() == 0 {
				avg = testing.AllocsPerRun(runs, step)
				return
			}
			for i := 0; i < runs+1; i++ { // AllocsPerRun's own warm-up call, then the runs
				step()
			}
		}}}})
	return avg
}

// TestMovePackAllocFree is BenchmarkMovePack's shape: a half-array
// section copy between two HPF arrays over 4 processes on the ideal
// machine.  The pooled data plane's steady state allocates nothing.
func TestMovePackAllocFree(t *testing.T) {
	// Message-struct freelists migrate from senders to receivers one
	// struct per move and reach their steady population only after a
	// few hundred moves.
	avg := steadyMoveAllocs(mpsim.Ideal(), 4, 300, func(p *mpsim.Proc) func() {
		ctx := core.NewCtx(p, p.Comm())
		src := hpfrt.NewArray(distarray.MustBlock2D(256, 256, 4), p.Rank())
		dst := hpfrt.NewArray(distarray.MustBlock2D(256, 256, 4), p.Rank())
		sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
			&core.Spec{Lib: hpfrt.Library, Obj: src,
				Set: core.NewSetOfRegions(gidx.NewSection([]int{0, 0}, []int{128, 256})), Ctx: ctx},
			&core.Spec{Lib: hpfrt.Library, Obj: dst,
				Set: core.NewSetOfRegions(gidx.NewSection([]int{128, 0}, []int{256, 256})), Ctx: ctx},
			core.Duplication)
		if err != nil {
			panic(err)
		}
		return func() { sched.Move(src, dst) }
	})
	if avg != 0 {
		t.Errorf("steady-state section moves average %v allocations; want 0", avg)
	}
}

// TestMoveOverlapAllocFree is BenchmarkMoveOverlap's shape: a
// block-to-cyclic redistribution over 8 processes on the SP2 machine,
// which adds the strided staging path and timer-driven delivery.
func TestMoveOverlapAllocFree(t *testing.T) {
	const n = 1 << 15
	avg := steadyMoveAllocs(mpsim.SP2(), 8, 300, func(p *mpsim.Proc) func() {
		ctx := core.NewCtx(p, p.Comm())
		bdist, err := distarray.NewDist(gidx.Shape{n}, []int{8}, []distarray.Kind{distarray.Block})
		if err != nil {
			panic(err)
		}
		cdist, err := distarray.NewDist(gidx.Shape{n}, []int{8}, []distarray.Kind{distarray.Cyclic})
		if err != nil {
			panic(err)
		}
		src := mbparti.MustNewArray(bdist, p.Rank(), 0)
		dst := mbparti.MustNewArray(cdist, p.Rank(), 0)
		all := core.NewSetOfRegions(gidx.NewSection([]int{0}, []int{n}))
		sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
			&core.Spec{Lib: mbparti.Library, Obj: src, Set: all, Ctx: ctx},
			&core.Spec{Lib: mbparti.Library, Obj: dst, Set: all, Ctx: ctx},
			core.Duplication)
		if err != nil {
			panic(err)
		}
		return func() { sched.Move(src, dst) }
	})
	if avg != 0 {
		t.Errorf("steady-state redistribution moves average %v allocations; want 0", avg)
	}
}

// TestScheduleBuildAllocsFollowRuns holds the inspector to O(runs): a
// cold ComputeSchedule between an HPF and a Multiblock Parti array,
// both (BLOCK, BLOCK) over 4 processes, may allocate for the rows a
// section has but never for its elements.  A 96×96 section has 16 times
// the elements of a 24×24 one and 4 times the rows; with growing slices
// that is a few more allocations, not a multiple.
func TestScheduleBuildAllocsFollowRuns(t *testing.T) {
	build := func(method core.Method, edge int) float64 {
		return steadyMoveAllocs(mpsim.Ideal(), 4, 20, func(p *mpsim.Proc) func() {
			ctx := core.NewCtx(p, p.Comm())
			dist := distarray.MustBlock2D(edge+8, edge+8, 4)
			src := &core.Spec{Lib: hpfrt.Library, Obj: hpfrt.NewArray(dist, p.Rank()), Ctx: ctx,
				Set: core.NewSetOfRegions(gidx.NewSection([]int{1, 3}, []int{1 + edge, 3 + edge}))}
			dst := &core.Spec{Lib: mbparti.Library, Obj: mbparti.MustNewArray(dist, p.Rank(), 1), Ctx: ctx,
				Set: core.NewSetOfRegions(gidx.NewSection([]int{5, 0}, []int{5 + edge, edge}))}
			coupling := core.SingleProgram(p.Comm())
			return func() {
				if _, err := core.ComputeSchedule(coupling, src, dst, method); err != nil {
					panic(err)
				}
			}
		})
	}
	for _, method := range []core.Method{core.Cooperation, core.Duplication} {
		small, large := build(method, 24), build(method, 96)
		t.Logf("%v: %.0f allocations per build at 24×24, %.0f at 96×96", method, small, large)
		if large > 1.5*small {
			t.Errorf("%v: a 96×96 section build allocates %.0f times, a 24×24 one %.0f; want at most 1.5x", method, large, small)
		}
	}
}
