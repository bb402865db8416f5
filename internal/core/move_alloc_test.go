package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/pcxxrt"
)

// steadyMoveAllocs runs warm-up collective steps (moves, for most
// callers) in an nprocs world, then counts the heap allocations of the
// whole process over 50 more.
// Rank 0 counts while the other ranks keep step, so the figure covers
// every rank's pack, ship and unpack.  AllocsPerRun pins GOMAXPROCS to 1
// while it counts; one shard keeps the engine on the inline path
// whatever MPSIM_SHARDS said before.
func steadyMoveAllocs(t testing.TB, m *mpsim.Machine, nprocs, warmup int, build func(p *mpsim.Proc) (move func())) float64 {
	return steadyAllocs(t, m, warmup, build, nprocs)
}

// steadyAllocs is steadyMoveAllocs in a world of one program per entry
// of procs: world rank 0 counts, and a barrier over the world keeps
// every rank in step.
func steadyAllocs(t testing.TB, m *mpsim.Machine, warmup int, build func(p *mpsim.Proc) (step func()), procs ...int) float64 {
	const runs = 50
	var avg float64
	t.Setenv("MPSIM_SHARDS", "1")
	mpsim.Run(mpsim.Config{Machine: m, Programs: programs(func(p *mpsim.Proc) {
		move := build(p)
		// The barrier bounds how far a rank that only sends runs
		// ahead of its receivers, so segments recycle.
		step := func() { move(); p.World().Barrier() }
		for i := 0; i < warmup; i++ {
			step()
		}
		if p.WorldRank() == 0 {
			avg = testing.AllocsPerRun(runs, step)
			return
		}
		for i := 0; i < runs+1; i++ { // AllocsPerRun's own warm-up call, then the runs
			step()
		}
	}, procs...)})
	return avg
}

// programs lays body out as one program per entry of procs, of that
// many processes, named p0, p1, ...
func programs(body func(p *mpsim.Proc), procs ...int) []mpsim.ProgramSpec {
	specs := make([]mpsim.ProgramSpec, len(procs))
	for i, n := range procs {
		specs[i] = mpsim.ProgramSpec{Name: fmt.Sprintf("p%d", i), Procs: n, Body: body}
	}
	return specs
}

// layout is a test transfer's world: one program of four processes
// holding both sides, or a program of four for each side, coupled with
// NewCoupling (the only case that exchanges descriptors).
type layout int

const (
	oneProgram layout = iota
	twoPrograms
)

func (l layout) procs() []int {
	if l == twoPrograms {
		return []int{4, 4}
	}
	return []int{4}
}

// coupling returns a rank's coupling and its sides, the one its program
// does not hold set to nil.
func (l layout) coupling(p *mpsim.Proc, src, dst *core.Spec) (*core.Coupling, *core.Spec, *core.Spec) {
	if l == oneProgram {
		return core.SingleProgram(p.Comm()), src, dst
	}
	c, err := core.NewCoupling(p, []int{0, 1, 2, 3}, []int{4, 5, 6, 7})
	if err != nil {
		panic(err)
	}
	if p.WorldRank() < 4 {
		return c, src, nil
	}
	return c, nil, dst
}

// TestMovePackAllocFree is BenchmarkMovePack's shape: a half-array
// section copy between two HPF arrays over 4 processes on the ideal
// machine.  The pooled data plane's steady state allocates nothing.
// The same holds for the daemon's 2-word pcxxrt collections, whose
// element type's label (ElemType.String formats it) must not be built
// per move.
func TestMovePackAllocFree(t *testing.T) {
	for _, row := range []struct {
		name  string
		sides func(p *mpsim.Proc, ctx *core.Ctx) (src, dst *core.Spec)
	}{
		{"hpf sections", func(p *mpsim.Proc, ctx *core.Ctx) (src, dst *core.Spec) {
			return &core.Spec{Lib: hpfrt.Library, Obj: hpfrt.NewArray(distarray.MustBlock2D(256, 256, 4), p.Rank()),
					Set: core.NewSetOfRegions(gidx.NewSection([]int{0, 0}, []int{128, 256})), Ctx: ctx},
				&core.Spec{Lib: hpfrt.Library, Obj: hpfrt.NewArray(distarray.MustBlock2D(256, 256, 4), p.Rank()),
					Set: core.NewSetOfRegions(gidx.NewSection([]int{128, 0}, []int{256, 256})), Ctx: ctx}
		}},
		{"2-word pcxx collections", func(p *mpsim.Proc, ctx *core.Ctx) (src, dst *core.Spec) {
			side := func(lo int) *core.Spec {
				c, err := pcxxrt.NewCollection(1<<12, 4, 2, p.Rank())
				if err != nil {
					panic(err)
				}
				return &core.Spec{Lib: pcxxrt.Library, Obj: c, Ctx: ctx,
					Set: core.NewSetOfRegions(pcxxrt.RangeRegion{Lo: lo, Hi: lo + 1<<11, Step: 1})}
			}
			return side(0), side(1 << 11)
		}},
	} {
		// Message-struct freelists migrate from senders to receivers one
		// struct per move and reach their steady population only after a
		// few hundred moves.
		avg := steadyMoveAllocs(t, mpsim.Ideal(), 4, 300, func(p *mpsim.Proc) func() {
			src, dst := row.sides(p, core.NewCtx(p, p.Comm()))
			sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()), src, dst, core.Duplication)
			if err != nil {
				panic(err)
			}
			return func() { sched.Move(src.Obj, dst.Obj) }
		})
		if avg != 0 {
			t.Errorf("%s: steady-state moves average %v allocations; want 0", row.name, avg)
		}
	}
}

// TestMoveOverlapAllocFree is BenchmarkMoveOverlap's shape: a
// block-to-cyclic redistribution over 8 processes on the SP2 machine,
// which adds the strided staging path and timer-driven delivery.
func TestMoveOverlapAllocFree(t *testing.T) {
	const n = 1 << 15
	avg := steadyMoveAllocs(t, mpsim.SP2(), 8, 300, func(p *mpsim.Proc) func() {
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
// the elements of a 24×24 one and 4 times the rows; with the inquiry
// answers appended to buffers the Coupling keeps, both sizes allocate
// the same: the returned lists, the Schedule and the broadcasts'
// copies; the all-to-all exchanges land in slots the Coupling keeps.
// The row between two programs exchanges descriptors on every build; an
// unchanged peer is not decoded again.  The irregular rows are
// inspect-irregular's shape, CHAOS index lists behind the paged
// translation table: every element is a run of its own, so only scratch
// kept across builds (the translation table's lookup slots among it)
// keeps 16 times the elements from costing more allocations.
func TestScheduleBuildAllocsFollowRuns(t *testing.T) {
	build := func(l layout, method core.Method, size int, sides buildSides) float64 {
		return steadyAllocs(t, mpsim.Ideal(), 20, func(p *mpsim.Proc) func() {
			src, dst := sides(p, core.NewCtx(p, p.Comm()), size)
			coupling, src, dst := l.coupling(p, src, dst)
			return func() {
				if _, err := core.ComputeSchedule(coupling, src, dst, method); err != nil {
					panic(err)
				}
			}
		}, l.procs()...)
	}
	for _, row := range []struct {
		name         string
		layout       layout
		method       core.Method
		small, large int
		sides        buildSides
		// same asks for equal counts at both sizes: every list of a
		// section transfer has a run count independent of its size, and
		// an element-granular one grows only scratch kept across builds.
		same bool
		// ceiling bounds the count at either size.
		ceiling float64
	}{
		{"sections, cooperation", oneProgram, core.Cooperation, 24, 96, sectionSides, true, 28},
		{"sections, duplication", oneProgram, core.Duplication, 24, 96, sectionSides, true, 28},
		{"sections between programs, duplication", twoPrograms, core.Duplication, 24, 96, sectionSides, true, 67},
		{"chaos to hpf block vector, cooperation", oneProgram, core.Cooperation, 1 << 11, 1 << 15, chaosToHPFSides, true, 32},
		{"pcxx round-robin to chaos, cooperation", oneProgram, core.Cooperation, 1 << 11, 1 << 15, pcxxToChaosSides, true, 32},
	} {
		small, large := build(row.layout, row.method, row.small, row.sides), build(row.layout, row.method, row.large, row.sides)
		t.Logf("%s: %.0f allocations per build at size %d, %.0f at %d", row.name, small, row.small, large, row.large)
		switch {
		case row.same && large != small:
			t.Errorf("%s: a build at size %d allocates %.0f times, at %d %.0f; want the same", row.name, row.large, large, row.small, small)
		case large > 1.5*small:
			t.Errorf("%s: a build at size %d allocates %.0f times, at %d %.0f; want at most 1.5x", row.name, row.large, large, row.small, small)
		}
		if max(small, large) > row.ceiling {
			t.Errorf("%s: a build allocates %.0f times; want at most %.0f", row.name, max(small, large), row.ceiling)
		}
	}
}

// buildSides makes a rank's two sides of a transfer whose size grows
// with size.
type buildSides func(p *mpsim.Proc, ctx *core.Ctx, size int) (src, dst *core.Spec)

// sectionSides is an edge×edge section of an HPF array copied onto a
// shifted one of a Multiblock Parti array, both (BLOCK, BLOCK).
func sectionSides(p *mpsim.Proc, ctx *core.Ctx, edge int) (src, dst *core.Spec) {
	dist := distarray.MustBlock2D(edge+8, edge+8, p.Comm().Size())
	src = &core.Spec{Lib: hpfrt.Library, Obj: hpfrt.NewArray(dist, p.Rank()), Ctx: ctx,
		Set: core.NewSetOfRegions(gidx.NewSection([]int{1, 3}, []int{1 + edge, 3 + edge}))}
	dst = &core.Spec{Lib: mbparti.Library, Obj: mbparti.MustNewArray(dist, p.Rank(), 1), Ctx: ctx,
		Set: core.NewSetOfRegions(gidx.NewSection([]int{5, 0}, []int{5 + edge, edge}))}
	return src, dst
}

// chaosSide is rank's side of an n-element CHAOS array dealt by a
// seeded permutation, linearized in the order of another.
func chaosSide(p *mpsim.Proc, ctx *core.Ctx, n int) *core.Spec {
	nprocs := p.Comm().Size()
	rng := rand.New(rand.NewSource(int64(n)))
	deal, order := rng.Perm(n), rng.Perm(n)
	var mine []int32
	for _, g := range deal[p.Rank()*n/nprocs : (p.Rank()+1)*n/nprocs] {
		mine = append(mine, int32(g))
	}
	a, err := chaoslib.NewArray(ctx, mine)
	if err != nil {
		panic(err)
	}
	region := make(chaoslib.IndexRegion, n)
	for k, g := range order {
		region[k] = int32(g)
	}
	return &core.Spec{Lib: chaoslib.Library, Obj: a, Ctx: ctx, Set: core.NewSetOfRegions(region)}
}

// chaosToHPFSides is inspect-irregular's shape: a CHAOS index list
// behind the paged translation table onto a whole HPF block vector.
func chaosToHPFSides(p *mpsim.Proc, ctx *core.Ctx, n int) (src, dst *core.Spec) {
	dist, err := distarray.NewDist(gidx.Shape{n}, []int{p.Comm().Size()}, []distarray.Kind{distarray.Block})
	if err != nil {
		panic(err)
	}
	return chaosSide(p, ctx, n), &core.Spec{Lib: hpfrt.Library, Obj: hpfrt.NewArray(dist, p.Rank()), Ctx: ctx,
		Set: core.NewSetOfRegions(gidx.NewSection([]int{0}, []int{n}))}
}

// pcxxToChaosSides is a whole pC++ round-robin collection onto a CHAOS
// index list.
func pcxxToChaosSides(p *mpsim.Proc, ctx *core.Ctx, n int) (src, dst *core.Spec) {
	c, err := pcxxrt.NewCollection(n, p.Comm().Size(), 1, p.Rank())
	if err != nil {
		panic(err)
	}
	src = &core.Spec{Lib: pcxxrt.Library, Obj: c, Ctx: ctx,
		Set: core.NewSetOfRegions(pcxxrt.RangeRegion{Lo: 0, Hi: n, Step: 1})}
	return src, chaosSide(p, ctx, n)
}
