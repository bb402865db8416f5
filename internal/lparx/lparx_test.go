package lparx

import (
	"strings"
	"testing"

	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
)

// amrDecomposition is the shared fixture: an L-shaped refined level of
// three patches over a 16x16 index space, spread across 2 processes.
//
//	patch 0: [0,8)x[0,8)   -> rank 0
//	patch 1: [8,16)x[0,8)  -> rank 1
//	patch 2: [0,8)x[8,16)  -> rank 1
func amrDecomposition(t *testing.T) *Decomposition {
	t.Helper()
	dec, err := NewDecomposition(2, []Patch{
		{Lo: []int{0, 0}, Hi: []int{8, 8}, Owner: 0},
		{Lo: []int{8, 0}, Hi: []int{16, 8}, Owner: 1},
		{Lo: []int{0, 8}, Hi: []int{8, 16}, Owner: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestDecompositionValidation(t *testing.T) {
	if _, err := NewDecomposition(2, nil); err == nil {
		t.Error("empty decomposition accepted")
	}
	if _, err := NewDecomposition(2, []Patch{
		{Lo: []int{0, 0}, Hi: []int{4, 4}, Owner: 0},
		{Lo: []int{2, 2}, Hi: []int{6, 6}, Owner: 1},
	}); err == nil {
		t.Error("overlapping patches accepted")
	}
	if _, err := NewDecomposition(2, []Patch{
		{Lo: []int{0, 0}, Hi: []int{0, 4}, Owner: 0},
	}); err == nil {
		t.Error("empty patch accepted")
	}
	if _, err := NewDecomposition(2, []Patch{
		{Lo: []int{0, 0}, Hi: []int{4, 4}, Owner: 5},
	}); err == nil {
		t.Error("out-of-range owner accepted")
	}
	if _, err := NewDecomposition(2, []Patch{
		{Lo: []int{0, 0}, Hi: []int{4, 4}, Owner: 0},
		{Lo: []int{0}, Hi: []int{4}, Owner: 0},
	}); err == nil {
		t.Error("rank mismatch accepted")
	}
}

func TestGridStorageAndAccess(t *testing.T) {
	dec := amrDecomposition(t)
	if dec.LocalSize(0) != 64 || dec.LocalSize(1) != 128 {
		t.Fatalf("local sizes %d/%d", dec.LocalSize(0), dec.LocalSize(1))
	}
	for rank := 0; rank < 2; rank++ {
		g := NewGrid(dec, rank)
		g.FillGlobal(func(c []int) float64 { return float64(c[0]*16 + c[1]) })
		for i := 0; i < dec.NumPatches(); i++ {
			pt := dec.Patch(i)
			if pt.Owner != rank {
				continue
			}
			for x := pt.Lo[0]; x < pt.Hi[0]; x++ {
				for y := pt.Lo[1]; y < pt.Hi[1]; y++ {
					if got := g.Get([]int{x, y}); got != float64(x*16+y) {
						t.Fatalf("rank %d (%d,%d)=%g", rank, x, y, got)
					}
				}
			}
		}
	}
}

func TestGridRejectsUncoveredAndRemote(t *testing.T) {
	dec := amrDecomposition(t)
	g := NewGrid(dec, 0)
	for _, bad := range [][]int{{9, 9}, {15, 15}} { // hole in the L
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("access to uncovered point %v succeeded", bad)
				}
			}()
			g.Get(bad)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("remote access succeeded")
		}
	}()
	g.Get([]int{8, 0}) // rank 1's patch
}

func TestDerefConsistency(t *testing.T) {
	dec := amrDecomposition(t)
	set := core.NewSetOfRegions(
		BoxRegion{Lo: []int{4, 4}, Hi: []int{12, 8}}, // spans patches 0 and 1
		BoxRegion{Lo: []int{0, 8}, Hi: []int{4, 12}}, // inside patch 2
	)
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		g := NewGrid(dec, p.Rank())
		n := set.Size()
		locs := expand(Library.DerefRange(ctx, g, set, 0, n, nil))
		if len(locs) != n {
			t.Fatalf("deref returned %d locs", len(locs))
		}
		positions := make([]int32, n)
		for i := range positions {
			positions[i] = int32(i)
		}
		at := expand(Library.DerefAt(ctx, g, set, points(positions), nil))
		for i := range locs {
			if locs[i] != at[i] {
				t.Fatalf("DerefRange/DerefAt disagree at %d", i)
			}
		}
		owned := expandOwned(Library.OwnedPositions(ctx, g, set, nil))
		last := int32(-1)
		count := 0
		for _, pl := range owned {
			if pl.Pos <= last {
				t.Fatalf("owned positions not sorted: %d after %d", pl.Pos, last)
			}
			last = pl.Pos
			if locs[pl.Pos].Proc != int32(p.Rank()) || locs[pl.Pos].Off != pl.Off {
				t.Fatalf("owned position %d disagrees with deref", pl.Pos)
			}
			count++
		}
		for i, loc := range locs {
			if int(loc.Proc) == p.Rank() {
				count--
				_ = i
			}
		}
		if count != 0 {
			t.Fatal("owned positions miscounted")
		}
	})
}

func TestDerefUncoveredPanics(t *testing.T) {
	dec := amrDecomposition(t)
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		g := NewGrid(dec, p.Rank())
		set := core.NewSetOfRegions(BoxRegion{Lo: []int{8, 8}, Hi: []int{10, 10}}) // hole
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(r.(string), "not covered") {
				t.Errorf("want coverage panic, got %v", r)
			}
		}()
		Library.DerefRange(ctx, g, set, 0, set.Size(), nil)
	})
}

// TestAMRCouplingWithParti is the reason this library exists: a
// refined LPARX level exchanges a shared region with a uniform
// Multiblock Parti mesh, in both directions and both methods.
func TestAMRCouplingWithParti(t *testing.T) {
	const nprocs = 2
	dec := amrDecomposition(t)
	box := BoxRegion{Lo: []int{0, 0}, Hi: []int{16, 8}} // patches 0+1
	sec := gidx.NewSection([]int{0, 0}, []int{16, 8})
	for _, m := range []core.Method{core.Cooperation, core.Duplication} {
		m := m
		mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
			ctx := core.NewCtx(p, p.Comm())
			fine := NewGrid(dec, p.Rank())
			fine.FillGlobal(func(c []int) float64 { return float64(c[0]*100 + c[1]) })
			coarse, err := mbparti.NewArray(distarray.MustBlock2D(16, 16, nprocs), p.Rank(), 1)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
				&core.Spec{Lib: Library, Obj: fine, Set: core.NewSetOfRegions(box), Ctx: ctx},
				&core.Spec{Lib: mbparti.Library, Obj: coarse, Set: core.NewSetOfRegions(sec), Ctx: ctx},
				m)
			if err != nil {
				t.Errorf("%v: %v", m, err)
				return
			}
			sched.Move(fine, coarse)
			lo, hi, _ := coarse.Dist().LocalBox(p.Rank())
			for x := lo[0]; x < hi[0]; x++ {
				for y := lo[1]; y < min(8, hi[1]); y++ {
					if got := coarse.Get([]int{x, y}); got != float64(x*100+y) {
						t.Errorf("%v: coarse[%d,%d]=%g", m, x, y, got)
						return
					}
				}
			}
			// And back: wipe the fine level, reverse-restore it.
			fine.FillGlobal(func([]int) float64 { return -1 })
			sched.MoveReverse(fine, coarse)
			for i := 0; i < 2; i++ {
				pt := dec.Patch(i)
				if pt.Owner != p.Rank() {
					continue
				}
				if got := fine.Get(pt.Lo); got != float64(pt.Lo[0]*100+pt.Lo[1]) {
					t.Errorf("%v: fine%v=%g after reverse", m, pt.Lo, got)
				}
			}
		})
	}
}

func TestCrossProgramDuplicationWithLPARX(t *testing.T) {
	// The compact patch-list descriptor makes duplication viable
	// between programs — ship it and dereference remotely.
	dec := amrDecomposition(t)
	box := BoxRegion{Lo: []int{0, 0}, Hi: []int{8, 8}}
	got := make([]float64, 64)
	mpsim.Run(mpsim.Config{
		Machine: mpsim.Ideal(),
		Programs: []mpsim.ProgramSpec{
			{Name: "amr", Procs: 2, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				g := NewGrid(dec, p.Rank())
				g.FillGlobal(func(c []int) float64 { return float64(c[0]*8 + c[1]) })
				coupling, _ := core.CoupleByName(p, "amr", "flat")
				sched, err := core.ComputeSchedule(coupling,
					&core.Spec{Lib: Library, Obj: g, Set: core.NewSetOfRegions(box), Ctx: ctx},
					nil, core.Duplication)
				if err != nil {
					t.Errorf("amr: %v", err)
					return
				}
				sched.MoveSend(g)
			}},
			{Name: "flat", Procs: 2, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				a := hpfrt.NewArray(hpfrt.BlockVector(64, 2), p.Rank())
				coupling, _ := core.CoupleByName(p, "amr", "flat")
				sched, err := core.ComputeSchedule(coupling, nil,
					&core.Spec{Lib: hpfrt.Library, Obj: a,
						Set: core.NewSetOfRegions(gidx.FullSection(gidx.Shape{64})), Ctx: ctx},
					core.Duplication)
				if err != nil {
					t.Errorf("flat: %v", err)
					return
				}
				sched.MoveRecv(a)
				for i := 0; i < 64; i++ {
					if a.Dist().OwnerOf([]int{i}) == p.Rank() {
						got[i] = a.Get([]int{i})
					}
				}
			}},
		},
	})
	// Box linearization is row-major over [0,8)x[0,8): position k is
	// point (k/8, k%8) with value (k/8)*8 + k%8 = k.
	for k := range got {
		if got[k] != float64(k) {
			t.Fatalf("flat[%d]=%g want %d", k, got[k], k)
		}
	}
}

func TestDescriptorAndRegionCodecs(t *testing.T) {
	dec := amrDecomposition(t)
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		g := NewGrid(dec, p.Rank())
		blob, compact := Library.EncodeDescriptor(ctx, g)
		if !compact {
			t.Error("patch lists are compact")
		}
		v, err := Library.DecodeDescriptor(blob)
		if err != nil {
			t.Fatal(err)
		}
		set := core.NewSetOfRegions(BoxRegion{Lo: []int{2, 2}, Hi: []int{12, 6}})
		want := Library.DerefRange(ctx, g, set, 0, set.Size(), nil)
		have := Library.DerefRange(ctx, v, set, 0, set.Size(), nil)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("view deref %d: %+v vs %+v", i, have[i], want[i])
			}
		}
	})
	r := BoxRegion{Lo: []int{1, 2}, Hi: []int{3, 4}}
	back, err := Library.DecodeRegion(Library.EncodeRegion(r))
	if err != nil {
		t.Fatal(err)
	}
	br := back.(BoxRegion)
	if br.Lo[0] != 1 || br.Hi[1] != 4 {
		t.Errorf("region round trip: %+v", br)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
