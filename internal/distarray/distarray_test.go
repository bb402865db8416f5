package distarray

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"metachaos/internal/gidx"
)

// ownedRoundTrips reports whether every element EachOwned enumerates
// maps back through LocalCoords to its own rank and local coordinates,
// and the tiles together hold every element of the shape once.
func ownedRoundTrips(d *Dist) bool {
	ok, total := true, 0
	for rank := 0; rank < d.NProcs(); rank++ {
		d.EachOwned(rank, func(local, coords []int) {
			r, back := d.LocalCoords(coords, nil)
			ok = ok && r == rank && slices.Equal(back, local)
			total++
		})
	}
	return ok && total == d.Shape().Size()
}

func mustDist(t *testing.T, shape gidx.Shape, grid []int, kinds []Kind) *Dist {
	t.Helper()
	d, err := NewDist(shape, grid, kinds)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDistValidation(t *testing.T) {
	cases := []struct {
		shape gidx.Shape
		grid  []int
		kinds []Kind
	}{
		{gidx.Shape{}, []int{}, []Kind{}},
		{gidx.Shape{4}, []int{2, 2}, []Kind{Block}},
		{gidx.Shape{4}, []int{0}, []Kind{Block}},
		{gidx.Shape{4}, []int{2}, []Kind{Kind(9)}},
		{gidx.Shape{-4}, []int{2}, []Kind{Block}},
	}
	for i, c := range cases {
		if _, err := NewDist(c.shape, c.grid, c.kinds); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBlockPartitionCoversSpace(t *testing.T) {
	d := mustDist(t, gidx.Shape{10, 7}, []int{2, 3}, []Kind{Block, Block})
	if d.NProcs() != 6 {
		t.Fatalf("NProcs=%d", d.NProcs())
	}
	total := 0
	for r := 0; r < 6; r++ {
		total += d.LocalSize(r)
	}
	if total != 70 {
		t.Errorf("local sizes sum to %d, want 70", total)
	}
	// Every global element is owned by exactly one rank with a unique
	// (rank, offset) pair.
	seen := make(map[[2]int][2]int)
	for i := 0; i < 10; i++ {
		for j := 0; j < 7; j++ {
			rank, off := d.Locate([]int{i, j})
			key := [2]int{rank, off}
			if prev, dup := seen[key]; dup {
				t.Fatalf("(%d,%d) and %v share location rank=%d off=%d", i, j, prev, rank, off)
			}
			seen[key] = [2]int{i, j}
			if off < 0 || off >= d.LocalSize(rank) {
				t.Fatalf("offset %d out of range for rank %d", off, rank)
			}
			if o := d.OwnerOf([]int{i, j}); o != rank {
				t.Fatalf("OwnerOf disagrees with Locate at (%d,%d)", i, j)
			}
		}
	}
}

func TestCyclicPartition(t *testing.T) {
	d := mustDist(t, gidx.Shape{10}, []int{3}, []Kind{Cyclic})
	owners := make([]int, 10)
	for i := range owners {
		owners[i] = d.OwnerOf([]int{i})
	}
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	if !reflect.DeepEqual(owners, want) {
		t.Errorf("owners=%v want %v", owners, want)
	}
	if got := d.LocalCounts(0)[0]; got != 4 {
		t.Errorf("rank 0 count=%d want 4", got)
	}
	if got := d.LocalCounts(2)[0]; got != 3 {
		t.Errorf("rank 2 count=%d want 3", got)
	}
}

func TestLocalBox(t *testing.T) {
	d := mustDist(t, gidx.Shape{10, 10}, []int{2, 2}, []Kind{Block, Block})
	lo, hi, ok := d.LocalBox(3)
	if !ok {
		t.Fatal("block dist should have boxes")
	}
	if !reflect.DeepEqual(lo, []int{5, 5}) || !reflect.DeepEqual(hi, []int{10, 10}) {
		t.Errorf("box=[%v,%v)", lo, hi)
	}
	dc := mustDist(t, gidx.Shape{10}, []int{2}, []Kind{Cyclic})
	if _, _, ok := dc.LocalBox(0); ok {
		t.Error("cyclic dist should not have boxes")
	}
}

func TestLocalBoxRaggedEdge(t *testing.T) {
	// 7 elements over 4 procs, block size 2: rank 3 owns [6,7).
	d := mustDist(t, gidx.Shape{7}, []int{4}, []Kind{Block})
	lo, hi, _ := d.LocalBox(3)
	if lo[0] != 6 || hi[0] != 7 {
		t.Errorf("rank 3 box [%d,%d) want [6,7)", lo[0], hi[0])
	}
	if d.LocalSize(3) != 1 {
		t.Errorf("rank 3 size=%d", d.LocalSize(3))
	}
	// 5 elements over 4 procs, block size 2: rank 3 owns nothing.
	d2 := mustDist(t, gidx.Shape{5}, []int{4}, []Kind{Block})
	if d2.LocalSize(3) != 0 {
		t.Errorf("rank 3 of 5/4 dist owns %d elements, want 0", d2.LocalSize(3))
	}
	lo, hi, _ = d2.LocalBox(3)
	if lo[0] != hi[0] {
		t.Errorf("empty box should be degenerate, got [%d,%d)", lo[0], hi[0])
	}
}

func TestGlobalOfInvertsLocate(t *testing.T) {
	for _, kinds := range [][]Kind{
		{Block, Block},
		{Cyclic, Block},
		{Block, Cyclic},
		{Cyclic, Cyclic},
	} {
		d := mustDist(t, gidx.Shape{9, 11}, []int{2, 3}, kinds)
		if !ownedRoundTrips(d) {
			t.Fatalf("kinds %v: LocalCoords does not invert the owned tiles", kinds)
		}
	}
}

func TestArrayGetSet(t *testing.T) {
	d := mustDist(t, gidx.Shape{6, 6}, []int{2, 2}, []Kind{Block, Block})
	arrays := make([]*Array, 4)
	for r := range arrays {
		arrays[r] = NewArray(d, r)
		arrays[r].FillGlobal(func(c []int) float64 { return float64(10*c[0] + c[1]) })
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			r := d.OwnerOf([]int{i, j})
			if got := arrays[r].Get([]int{i, j}); got != float64(10*i+j) {
				t.Fatalf("(%d,%d)=%g", i, j, got)
			}
		}
	}
}

func TestArrayRejectsRemoteAccess(t *testing.T) {
	d := mustDist(t, gidx.Shape{4}, []int{2}, []Kind{Block})
	a := NewArray(d, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic accessing remote element")
		}
	}()
	a.Get([]int{3})
}

func TestFillGlobal(t *testing.T) {
	d := mustDist(t, gidx.Shape{5, 4}, []int{2, 2}, []Kind{Block, Cyclic})
	for r := 0; r < 4; r++ {
		a := NewArray(d, r)
		a.FillGlobal(func(c []int) float64 { return float64(c[0]*100 + c[1]) })
		for i := 0; i < 5; i++ {
			for j := 0; j < 4; j++ {
				if d.OwnerOf([]int{i, j}) == r {
					if got := a.Get([]int{i, j}); got != float64(i*100+j) {
						t.Fatalf("rank %d (%d,%d)=%g", r, i, j, got)
					}
				}
			}
		}
	}
}

func TestSquarishGrid(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 8: {2, 4}, 12: {3, 4}, 16: {4, 4}, 7: {1, 7}}
	for n, want := range cases {
		gr, gc := SquarishGrid(n)
		if gr != want[0] || gc != want[1] {
			t.Errorf("SquarishGrid(%d)=(%d,%d) want %v", n, gr, gc, want)
		}
	}
}

// Property: for random block/cyclic 2-D distributions, ownership
// partitions the index space: sizes sum to the total, and (rank,
// offset) pairs are unique with offsets in range.
func TestQuickPartitionProperty(t *testing.T) {
	f := func(n0, n1, g0, g1 uint8, k0, k1 bool) bool {
		shape := gidx.Shape{int(n0%12) + 1, int(n1%12) + 1}
		grid := []int{int(g0%3) + 1, int(g1%3) + 1}
		kinds := []Kind{Block, Block}
		if k0 {
			kinds[0] = Cyclic
		}
		if k1 {
			kinds[1] = Cyclic
		}
		d, err := NewDist(shape, grid, kinds)
		if err != nil {
			return false
		}
		seen := make(map[[2]int]bool)
		for i := 0; i < shape[0]; i++ {
			for j := 0; j < shape[1]; j++ {
				rank, off := d.Locate([]int{i, j})
				if off < 0 || off >= d.LocalSize(rank) || seen[[2]int{rank, off}] {
					return false
				}
				seen[[2]int{rank, off}] = true
			}
		}
		total := 0
		for r := 0; r < d.NProcs(); r++ {
			total += d.LocalSize(r)
		}
		return total == shape.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	d := MustBlock2D(8, 8, 4)
	if d.Shape().Size() != 64 || len(d.Grid()) != 2 || len(d.Kinds()) != 2 {
		t.Error("accessors inconsistent")
	}
	if Block.String() != "BLOCK" || Cyclic.String() != "CYCLIC" ||
		BlockCyclic.String() != "CYCLIC(k)" || Kind(9).String() == "" {
		t.Error("kind strings")
	}
	if len(d.Params()) != 2 {
		t.Error("params length")
	}
	a := NewArray(d, 0)
	if a.Dist() != d {
		t.Error("array accessors")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewArray with bad rank accepted")
			}
		}()
		NewArray(d, 99)
	}()
}

// A Dist never changes, so its index translations work from tile
// extents computed once and allocate nothing.
func TestIndexTranslationAllocFree(t *testing.T) {
	d, err := NewDistParams(gidx.Shape{40, 30, 7}, []int{2, 3, 1}, []Kind{Block, BlockCyclic, Cyclic}, []int{1, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	coords, local := []int{17, 22, 5}, make([]int, 3)
	sink := 0
	if n := testing.AllocsPerRun(100, func() {
		r, off := d.Locate(coords)
		r2, _ := d.LocalCoords(coords, local)
		sink += r + off + r2 + d.OwnerOf(coords) + d.LocalSize(4)
	}); n != 0 {
		t.Errorf("Locate, LocalCoords, OwnerOf and LocalSize allocate %v times a call; want 0", n)
	}

	// FillGlobal walks the tile's global coordinates without a fresh
	// slice per element.
	a := NewArray(d, 4)
	per := testing.AllocsPerRun(10, func() { a.FillGlobal(func(c []int) float64 { return float64(c[0]) }) })
	if per > 8 {
		t.Errorf("FillGlobal over %d elements allocates %v times; want a handful", d.LocalSize(4), per)
	}
}

func TestEachOwnedMatchesGlobalOf(t *testing.T) {
	d, err := NewDistParams(gidx.Shape{9, 11}, []int{2, 3}, []Kind{BlockCyclic, Cyclic}, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < d.NProcs(); rank++ {
		n := 0
		d.EachOwned(rank, func(local, coords []int) {
			if r, back := d.LocalCoords(coords, nil); r != rank || !slices.Equal(back, local) {
				t.Fatalf("rank %d local %v: coords %v map back to rank %d local %v", rank, local, coords, r, back)
			}
			if r, off := d.Locate(coords); r != rank || off != n {
				t.Fatalf("rank %d: element %d at %v locates to rank %d offset %d", rank, n, coords, r, off)
			}
			n++
		})
		if n != d.LocalSize(rank) {
			t.Errorf("rank %d: EachOwned visited %d elements of %d", rank, n, d.LocalSize(rank))
		}
	}
}
