package distarray

import (
	"testing"

	"metachaos/internal/gidx"
)

func TestThreeDimensionalBlockDist(t *testing.T) {
	d, err := NewDist(gidx.Shape{6, 5, 4}, []int{2, 1, 2},
		[]Kind{Block, Block, Cyclic})
	if err != nil {
		t.Fatal(err)
	}
	if d.NProcs() != 4 {
		t.Fatalf("NProcs=%d", d.NProcs())
	}
	seen := map[[2]int]bool{}
	total := 0
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			for k := 0; k < 4; k++ {
				rank, off := d.Locate([]int{i, j, k})
				key := [2]int{rank, off}
				if seen[key] {
					t.Fatalf("collision at (%d,%d,%d)", i, j, k)
				}
				seen[key] = true
				total++
			}
		}
	}
	if total != 120 {
		t.Fatalf("visited %d elements", total)
	}
	if !ownedRoundTrips(d) {
		t.Fatal("LocalCoords does not invert the owned tiles")
	}
	sum := 0
	for r := 0; r < 4; r++ {
		sum += d.LocalSize(r)
	}
	if sum != 120 {
		t.Fatalf("local sizes sum to %d", sum)
	}
}

func TestThreeDimensionalArrayFill(t *testing.T) {
	d, _ := NewDist(gidx.Shape{4, 4, 4}, []int{2, 2, 1},
		[]Kind{Block, Block, Block})
	for r := 0; r < 4; r++ {
		a := NewArray(d, r)
		a.FillGlobal(func(c []int) float64 { return float64(c[0]*16 + c[1]*4 + c[2]) })
		lo, hi, ok := d.LocalBox(r)
		if !ok {
			t.Fatal("no box for all-block dist")
		}
		for i := lo[0]; i < hi[0]; i++ {
			for j := lo[1]; j < hi[1]; j++ {
				for k := lo[2]; k < hi[2]; k++ {
					if got := a.Get([]int{i, j, k}); got != float64(i*16+j*4+k) {
						t.Fatalf("(%d,%d,%d)=%g", i, j, k, got)
					}
				}
			}
		}
	}
}
