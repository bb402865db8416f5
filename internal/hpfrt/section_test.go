package hpfrt

import (
	"testing"

	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/mpsim"
)

// HPF's section assignment dst(dstSec) = src(srcSec) and its
// REDISTRIBUTE are one Meta-Chaos schedule between two HPF arrays,
// built with the communication-free duplication method since both
// descriptors are replicated in the program.  The package wraps
// neither; these tests drive core directly, as applications do.

// sectionSchedule builds the schedule carrying src(srcSec) onto
// dst(dstSec).  Collective over ctx.Comm.
func sectionSchedule(ctx *core.Ctx, src *Array, srcSec gidx.Section, dst *Array, dstSec gidx.Section) (*core.Schedule, error) {
	return core.ComputeSchedule(core.SingleProgram(ctx.Comm),
		&core.Spec{Lib: Library, Obj: src, Set: core.NewSetOfRegions(srcSec), Ctx: ctx},
		&core.Spec{Lib: Library, Obj: dst, Set: core.NewSetOfRegions(dstSec), Ctx: ctx},
		core.Duplication)
}

// full is a's whole index space: the section a redistribution moves.
func full(a *Array) gidx.Section { return gidx.FullSection(a.Dist().Shape()) }

func mustDist(t *testing.T, shape gidx.Shape, grid []int, kinds []distarray.Kind) *distarray.Dist {
	t.Helper()
	d, err := distarray.NewDist(shape, grid, kinds)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAssignSectionAcrossShapes(t *testing.T) {
	// dst(0:9, 5) = src(10, 0:9): a column receives a row slice from a
	// differently-shaped, differently-distributed array.
	const nprocs = 4
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		src := NewArray(distarray.MustBlock2D(16, 12, nprocs), p.Rank())
		dst := NewArray(RowBlockMatrix(10, 8, nprocs), p.Rank())
		src.FillGlobal(func(c []int) float64 { return float64(c[0]*100 + c[1]) })

		srcSec := gidx.NewSection([]int{10, 0}, []int{11, 10}) // row 10, cols 0..9
		dstSec := gidx.NewSection([]int{0, 5}, []int{10, 6})   // col 5, rows 0..9
		sched, err := sectionSchedule(ctx, src, srcSec, dst, dstSec)
		if err != nil {
			t.Errorf("ComputeSchedule: %v", err)
			return
		}
		sched.Move(src, dst)
		for i := 0; i < 10; i++ {
			if dst.Dist().OwnerOf([]int{i, 5}) == p.Rank() {
				want := float64(10*100 + i)
				if got := dst.Get([]int{i, 5}); got != want {
					t.Errorf("dst[%d,5]=%g want %g", i, got, want)
				}
			}
		}
	})
}

func TestAssignmentReuse(t *testing.T) {
	const n, nprocs = 12, 2
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		src := NewArray(BlockVector(n, nprocs), p.Rank())
		dst := NewArray(BlockVector(n, nprocs), p.Rank())
		sched, err := sectionSchedule(ctx, src, gidx.NewSection([]int{0}, []int{6}),
			dst, gidx.NewSection([]int{6}, []int{12}))
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		for iter := 0; iter < 3; iter++ {
			src.FillGlobal(func(c []int) float64 { return float64(iter*100 + c[0]) })
			sched.Move(src, dst)
			for g := 6; g < 12; g++ {
				if dst.Dist().OwnerOf([]int{g}) == p.Rank() {
					want := float64(iter*100 + g - 6)
					if got := dst.Get([]int{g}); got != want {
						t.Errorf("iter %d: dst[%d]=%g want %g", iter, g, got, want)
					}
				}
			}
		}
	})
}

func TestAssignStrided(t *testing.T) {
	// dst(0:12:2) = src(1:7:1): strided destination from a dense source.
	const n, nprocs = 14, 2
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		src := NewArray(BlockVector(n, nprocs), p.Rank())
		dst := NewArray(BlockVector(n, nprocs), p.Rank())
		src.FillGlobal(func(c []int) float64 { return float64(c[0] + 50) })
		srcSec := gidx.NewSection([]int{1}, []int{8})
		dstSec := gidx.Section{Lo: []int{0}, Hi: []int{13}, Step: []int{2}}
		sched, err := sectionSchedule(ctx, src, srcSec, dst, dstSec)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		sched.Move(src, dst)
		for k := 0; k < 7; k++ {
			g := 2 * k
			if dst.Dist().OwnerOf([]int{g}) == p.Rank() {
				want := float64(1 + k + 50)
				if got := dst.Get([]int{g}); got != want {
					t.Errorf("dst[%d]=%g want %g", g, got, want)
				}
			}
		}
	})
}

func TestRedistributeBlockToCyclic(t *testing.T) {
	const n, nprocs = 23, 3
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		src := NewArray(BlockVector(n, nprocs), p.Rank())
		src.FillGlobal(func(c []int) float64 { return float64(c[0]*c[0] + 1) })
		dst := NewArray(mustDist(t, gidx.Shape{n}, []int{nprocs},
			[]distarray.Kind{distarray.Cyclic}), p.Rank())

		sched, err := sectionSchedule(ctx, src, full(src), dst, full(dst))
		if err != nil {
			t.Errorf("ComputeSchedule: %v", err)
			return
		}
		sched.Move(src, dst)
		for g := 0; g < n; g++ {
			if dst.Dist().OwnerOf([]int{g}) == p.Rank() {
				if got := dst.Get([]int{g}); got != float64(g*g+1) {
					t.Errorf("dst[%d]=%g want %d", g, got, g*g+1)
				}
			}
		}
	})
}

func TestRedistributionRoundTrip(t *testing.T) {
	// BLOCK -> CYCLIC -> BLOCK restores the original exactly, reusing
	// a single symmetric schedule.
	const n, nprocs = 18, 2
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		a := NewArray(BlockVector(n, nprocs), p.Rank())
		a.FillGlobal(func(c []int) float64 { return float64(7*c[0] + 2) })
		b := NewArray(mustDist(t, gidx.Shape{n}, []int{nprocs},
			[]distarray.Kind{distarray.Cyclic}), p.Rank())

		sched, err := sectionSchedule(ctx, a, full(a), b, full(b))
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		sched.Move(a, b)
		// Wipe a, then bring everything back.
		for i := range a.Local() {
			a.Local()[i] = -1
		}
		sched.MoveReverse(a, b)
		lo, hi, _ := a.Dist().LocalBox(p.Rank())
		for g := lo[0]; g < hi[0]; g++ {
			if got := a.Get([]int{g}); got != float64(7*g+2) {
				t.Errorf("restored a[%d]=%g want %d", g, got, 7*g+2)
			}
		}
	})
}

func TestRedistribute2DAcrossGrids(t *testing.T) {
	// (BLOCK, BLOCK) on a 2x2 grid to (BLOCK, BLOCK) on a 4x1 grid.
	const n, nprocs = 8, 4
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		src := NewArray(distarray.MustBlock2D(n, n, nprocs), p.Rank())
		src.FillGlobal(func(c []int) float64 { return float64(c[0]*n + c[1]) })
		dst := NewArray(RowBlockMatrix(n, n, nprocs), p.Rank())
		sched, err := sectionSchedule(ctx, src, full(src), dst, full(dst))
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		sched.Move(src, dst)
		lo, hi, _ := dst.Dist().LocalBox(p.Rank())
		for i := lo[0]; i < hi[0]; i++ {
			for j := lo[1]; j < hi[1]; j++ {
				if got := dst.Get([]int{i, j}); got != float64(i*n+j) {
					t.Errorf("dst[%d,%d]=%g", i, j, got)
				}
			}
		}
	})
}

func TestRedistributeShapeMismatch(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		a := NewArray(BlockVector(10, 2), p.Rank())
		b := NewArray(BlockVector(11, 2), p.Rank())
		if _, err := sectionSchedule(ctx, a, full(a), b, full(b)); err == nil {
			t.Error("shape mismatch accepted")
		}
	})
}
