package distarray

import (
	"testing"
	"testing/quick"

	"metachaos/internal/gidx"
)

func TestBlockCyclicOwnership(t *testing.T) {
	// 14 indices, blocks of 3, 2 processes:
	// blocks: [0-2]p0 [3-5]p1 [6-8]p0 [9-11]p1 [12-13]p0.
	d, err := NewDistParams(gidx.Shape{14}, []int{2}, []Kind{BlockCyclic}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	wantOwner := []int{0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0}
	for i, w := range wantOwner {
		if got := d.OwnerOf([]int{i}); got != w {
			t.Errorf("owner(%d)=%d want %d", i, got, w)
		}
	}
	if got := d.LocalCounts(0)[0]; got != 8 {
		t.Errorf("rank 0 count=%d want 8", got)
	}
	if got := d.LocalCounts(1)[0]; got != 6 {
		t.Errorf("rank 1 count=%d want 6", got)
	}
	// Local layout on rank 0: 0,1,2,6,7,8,12,13 in that order.
	wantLocal := map[int]int{0: 0, 1: 1, 2: 2, 6: 3, 7: 4, 8: 5, 12: 6, 13: 7}
	for g, w := range wantLocal {
		rank, off := d.Locate([]int{g})
		if rank != 0 || off != w {
			t.Errorf("Locate(%d)=(%d,%d) want (0,%d)", g, rank, off, w)
		}
	}
}

func TestBlockCyclicGlobalOfInverts(t *testing.T) {
	d, err := NewDistParams(gidx.Shape{23, 9}, []int{3, 2},
		[]Kind{BlockCyclic, BlockCyclic}, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ownedRoundTrips(d) {
		t.Fatal("LocalCoords does not invert the owned tiles")
	}
}

func TestBlockCyclicNoBox(t *testing.T) {
	d, _ := NewDistParams(gidx.Shape{10}, []int{2}, []Kind{BlockCyclic}, []int{2})
	if _, _, ok := d.LocalBox(0); ok {
		t.Error("block-cyclic distribution should have no contiguous box")
	}
}

func TestBlockCyclicValidation(t *testing.T) {
	if _, err := NewDistParams(gidx.Shape{10}, []int{2}, []Kind{BlockCyclic}, []int{0}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := NewDistParams(gidx.Shape{10}, []int{2}, []Kind{Block}, []int{1, 2}); err == nil {
		t.Error("params rank mismatch accepted")
	}
	// Default parameter (nil params) equals CYCLIC(1).
	d, err := NewDistParams(gidx.Shape{6}, []int{2}, []Kind{BlockCyclic}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dc, _ := NewDist(gidx.Shape{6}, []int{2}, []Kind{Cyclic})
	for i := 0; i < 6; i++ {
		if d.OwnerOf([]int{i}) != dc.OwnerOf([]int{i}) {
			t.Errorf("CYCLIC(1) default differs from Cyclic at %d", i)
		}
	}
}

// Property: block-cyclic ownership partitions the space for random
// sizes, grids and block sizes.
func TestQuickBlockCyclicPartition(t *testing.T) {
	f := func(n8, g8, b8 uint8) bool {
		n := int(n8%40) + 1
		g := int(g8%4) + 1
		b := int(b8%5) + 1
		d, err := NewDistParams(gidx.Shape{n}, []int{g}, []Kind{BlockCyclic}, []int{b})
		if err != nil {
			return false
		}
		seen := map[[2]int]bool{}
		total := 0
		for i := 0; i < n; i++ {
			rank, off := d.Locate([]int{i})
			if off < 0 || off >= d.LocalSize(rank) {
				return false
			}
			key := [2]int{rank, off}
			if seen[key] {
				return false
			}
			seen[key] = true
			total++
		}
		if !ownedRoundTrips(d) {
			return false
		}
		sum := 0
		for r := 0; r < g; r++ {
			sum += d.LocalSize(r)
		}
		return total == n && sum == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
