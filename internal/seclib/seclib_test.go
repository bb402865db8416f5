package seclib

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/mpsim"
)

// testObject is a minimal seclib.Object for exercising the shared
// section machinery without pulling in mbparti or hpfrt.
type testObject struct {
	dist  *distarray.Dist
	halo  int
	words int
	mem   core.Mem
}

func (o *testObject) Elem() core.ElemType      { return core.Float64Elems(o.words) }
func (o *testObject) LocalMem() core.Mem       { return o.mem }
func (o *testObject) SecDist() *distarray.Dist { return o.dist }
func (o *testObject) Halo() int                { return o.halo }

func newTestObject(t *testing.T, shape gidx.Shape, grid []int, kinds []distarray.Kind, rank, halo, words int) *testObject {
	t.Helper()
	d, err := distarray.NewDist(shape, grid, kinds)
	if err != nil {
		t.Fatal(err)
	}
	elems := 1
	for _, c := range d.LocalCounts(rank) {
		elems *= c + 2*halo
	}
	return &testObject{dist: d, halo: halo, words: words, mem: core.MakeMem(core.Float64Elems(words), elems)}
}

var testLib = New("seclib-test")

func TestHaloOffsetsStayInsidePaddedTile(t *testing.T) {
	const nprocs = 4
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		o := newTestObject(t, gidx.Shape{10, 10}, []int{2, 2},
			[]distarray.Kind{distarray.Block, distarray.Block}, p.Rank(), 2, 1)
		ctx := core.NewCtx(p, p.Comm())
		set := core.NewSetOfRegions(gidx.FullSection(gidx.Shape{10, 10}))
		locs := expand(testLib.DerefRange(ctx, o, set, 0, set.Size(), nil))
		counts := o.dist.LocalCounts(p.Rank())
		padded := (counts[0] + 4) * (counts[1] + 4)
		for i, loc := range locs {
			if int(loc.Proc) == p.Rank() {
				if loc.Off < 0 || int(loc.Off) >= padded {
					t.Fatalf("pos %d: offset %d outside padded tile of %d", i, loc.Off, padded)
				}
			}
		}
	})
}

func TestCyclicDistributionFallsBackToScan(t *testing.T) {
	// Cyclic distributions have no tile box; OwnedPositions must still
	// agree with DerefRange.
	const nprocs = 3
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		o := newTestObject(t, gidx.Shape{17}, []int{nprocs},
			[]distarray.Kind{distarray.Cyclic}, p.Rank(), 0, 1)
		ctx := core.NewCtx(p, p.Comm())
		set := core.NewSetOfRegions(gidx.Section{Lo: []int{1}, Hi: []int{17}, Step: []int{2}})
		locs := expand(testLib.DerefRange(ctx, o, set, 0, set.Size(), nil))
		owned := expandOwned(testLib.OwnedPositions(ctx, o, set, nil))
		count := 0
		for i, loc := range locs {
			if int(loc.Proc) == p.Rank() {
				if owned[count].Pos != int32(i) || owned[count].Off != loc.Off {
					t.Fatalf("owned[%d]=%+v, deref pos %d -> %+v", count, owned[count], i, loc)
				}
				count++
			}
		}
		if count != len(owned) {
			t.Fatalf("OwnedPositions returned %d entries, deref found %d", len(owned), count)
		}
	})
}

func TestWrongRegionTypePanics(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		o := newTestObject(t, gidx.Shape{4}, []int{1}, []distarray.Kind{distarray.Block}, 0, 0, 1)
		ctx := core.NewCtx(p, p.Comm())
		set := core.NewSetOfRegions(badRegion{})
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(r.(string), "regular array section") {
				t.Errorf("want descriptive panic, got %v", r)
			}
		}()
		testLib.DerefRange(ctx, o, set, 0, 1, nil)
	})
}

type badRegion struct{}

func (badRegion) Size() int { return 1 }

func TestWrongObjectTypePanics(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		set := core.NewSetOfRegions(gidx.FullSection(gidx.Shape{4}))
		defer func() {
			if recover() == nil {
				t.Error("want panic for non-section object")
			}
		}()
		testLib.DerefRange(ctx, badObject{}, set, 0, 1, nil)
	})
}

type badObject struct{}

func (badObject) Elem() core.ElemType { return core.Float64 }
func (badObject) LocalMem() core.Mem  { return core.NilMem(core.Float64) }

func TestDescriptorPreservesWordsAndHalo(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		o := newTestObject(t, gidx.Shape{6, 4}, []int{2, 1},
			[]distarray.Kind{distarray.Block, distarray.Block}, p.Rank(), 1, 3)
		ctx := core.NewCtx(p, p.Comm())
		blob, compact := testLib.EncodeDescriptor(ctx, o)
		if !compact {
			t.Error("section descriptors are compact")
		}
		v, err := testLib.DecodeDescriptor(blob)
		if err != nil {
			t.Fatal(err)
		}
		view := v.(*View)
		if view.Elem() != core.Float64Elems(3) || view.Halo() != 1 {
			t.Errorf("view elem=%v halo=%d", view.Elem(), view.Halo())
		}
		if view.SecDist().Shape().Size() != 24 {
			t.Errorf("view shape %v", view.SecDist().Shape())
		}
	})
}

// Property: DerefRange over random sub-ranges equals the slice of the
// full dereference.
func TestQuickDerefRangeConsistent(t *testing.T) {
	f := func(lo8, n8 uint8) bool {
		ok := true
		mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
			o := newTestObject(t, gidx.Shape{12, 5}, []int{2, 1},
				[]distarray.Kind{distarray.Block, distarray.Block}, p.Rank(), 0, 1)
			ctx := core.NewCtx(p, p.Comm())
			set := core.NewSetOfRegions(
				gidx.NewSection([]int{0, 0}, []int{6, 5}),
				gidx.NewSection([]int{6, 1}, []int{12, 4}),
			)
			total := set.Size()
			lo := int(lo8) % total
			hi := lo + int(n8)%(total-lo+1)
			full := expand(testLib.DerefRange(ctx, o, set, 0, total, nil))
			part := expand(testLib.DerefRange(ctx, o, set, lo, hi, nil))
			for i := range part {
				if part[i] != full[lo+i] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDerefAtMatchesRange(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		o := newTestObject(t, gidx.Shape{9, 4}, []int{2, 1},
			[]distarray.Kind{distarray.Block, distarray.Block}, p.Rank(), 1, 1)
		ctx := core.NewCtx(p, p.Comm())
		set := core.NewSetOfRegions(
			gidx.NewSection([]int{0, 0}, []int{4, 4}),
			gidx.NewSection([]int{5, 1}, []int{9, 3}),
		)
		full := expand(testLib.DerefRange(ctx, o, set, 0, set.Size(), nil))
		positions := []int32{0, 3, 7, 15, int32(set.Size() - 1)}
		at := expand(testLib.DerefAt(ctx, o, set, points(positions), nil))
		for i, pos := range positions {
			if at[i] != full[pos] {
				t.Fatalf("DerefAt(%d)=%+v want %+v", pos, at[i], full[pos])
			}
		}
		if testLib.Name() != "seclib-test" {
			t.Errorf("Name=%q", testLib.Name())
		}
	})
}

func TestRegionCodecRoundTripDirect(t *testing.T) {
	sec := gidx.Section{Lo: []int{2, 0}, Hi: []int{8, 6}, Step: []int{3, 2}}
	back, err := testLib.DecodeRegion(testLib.EncodeRegion(sec))
	if err != nil {
		t.Fatal(err)
	}
	got := back.(gidx.Section)
	if got.String() != sec.String() {
		t.Errorf("round trip %v -> %v", sec, got)
	}
	// Wrong region type panics descriptively.
	defer func() {
		if recover() == nil {
			t.Error("EncodeRegion accepted a foreign region")
		}
	}()
	testLib.EncodeRegion(badRegion{})
}

func TestViewLocalIsNil(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		o := newTestObject(t, gidx.Shape{4}, []int{1}, []distarray.Kind{distarray.Block}, 0, 0, 2)
		ctx := core.NewCtx(p, p.Comm())
		blob, _ := testLib.EncodeDescriptor(ctx, o)
		v, err := testLib.DecodeDescriptor(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !v.LocalMem().IsNil() {
			t.Error("view carries storage")
		}
	})
}

func TestOwnedPositionsEmptyIntersection(t *testing.T) {
	// A section entirely inside one process's box: the other process
	// must take the empty-intersection fast path.
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		o := newTestObject(t, gidx.Shape{8}, []int{2}, []distarray.Kind{distarray.Block}, p.Rank(), 0, 1)
		ctx := core.NewCtx(p, p.Comm())
		set := core.NewSetOfRegions(gidx.NewSection([]int{0}, []int{4})) // rank 0 only
		owned := expandOwned(testLib.OwnedPositions(ctx, o, set, nil))
		if p.Rank() == 0 && len(owned) != 4 {
			t.Errorf("rank 0 owns %d", len(owned))
		}
		if p.Rank() == 1 && len(owned) != 0 {
			t.Errorf("rank 1 owns %d", len(owned))
		}
	})
}

// TestWalkPastStackRank walks a stepped section of a 9-dimensional
// array, one dimension more than a walk keeps on the stack, and a
// 3-dimensional one through the same check: every position must land
// where distarray.Locate puts its element (no halo), and
// OwnedPositions must list exactly the caller's.  The walk steps its
// coordinates from row to row across every leading dimension.
func TestWalkPastStackRank(t *testing.T) {
	for _, c := range []struct {
		shape gidx.Shape
		grid  []int
		sec   gidx.Section
	}{
		{gidx.Shape{5, 1, 1, 1, 1, 1, 1, 3, 7}, []int{2, 1, 1, 1, 1, 1, 1, 1, 2},
			gidx.Section{Lo: []int{0, 0, 0, 0, 0, 0, 0, 1, 1}, Hi: []int{5, 1, 1, 1, 1, 1, 1, 3, 7}, Step: []int{2, 1, 1, 1, 1, 1, 1, 1, 3}}},
		{gidx.Shape{6, 5, 7}, []int{2, 2, 1},
			gidx.Section{Lo: []int{1, 0, 2}, Hi: []int{6, 5, 7}, Step: []int{2, 3, 2}}},
	} {
		kinds := make([]distarray.Kind, len(c.shape))
		mpsim.RunSPMD(mpsim.Ideal(), 4, func(p *mpsim.Proc) {
			o := newTestObject(t, c.shape, c.grid, kinds, p.Rank(), 0, 1)
			ctx := core.NewCtx(p, p.Comm())
			set := core.NewSetOfRegions(c.sec)
			locs := expand(testLib.DerefRange(ctx, o, set, 0, set.Size(), nil))
			owned := expandOwned(testLib.OwnedPositions(ctx, o, set, nil))
			var mine []posLoc
			for k := 0; k < set.Size(); k++ {
				rank, off := o.dist.Locate(c.sec.PointAt(k, nil))
				if locs[k] != (loc{Proc: int32(rank), Off: int32(off)}) {
					t.Fatalf("rank %d of %v: position %d at %+v, want rank %d offset %d", p.Rank(), c.shape, k, locs[k], rank, off)
				}
				if rank == p.Rank() {
					mine = append(mine, posLoc{Pos: int32(k), Off: int32(off)})
				}
			}
			if !reflect.DeepEqual(owned, mine) {
				t.Fatalf("rank %d of %v: owns %v, want %v", p.Rank(), c.shape, owned, mine)
			}
		})
	}
}
