package mbparti

import (
	"fmt"
	"testing"

	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/mpsim"
)

// The multiblock reference: two n x n blocks side by side forming an
// n x 2n domain.  A multiblock code couples them the way the examples
// do — one ghost schedule per block, one copy schedule per inter-block
// interface, all built once and reused every step.

func TestMultiblockInterfaceUpdate(t *testing.T) {
	const n, nprocs = 8, 4
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		d := distarray.MustBlock2D(n, n, nprocs)
		b0 := MustNewArray(d, p.Rank(), 1)
		b1 := MustNewArray(d, p.Rank(), 1)
		b0.FillGlobal(func(c []int) float64 { return float64(100 + c[0]*10 + c[1]) })
		b1.FillGlobal(func(c []int) float64 { return float64(900 + c[0]*10 + c[1]) })

		// Block 0's right column drives block 1's left column, and block
		// 1's second column drives block 0's right column.
		right := gidx.NewSection([]int{0, n - 1}, []int{n, n})
		left := gidx.NewSection([]int{0, 0}, []int{n, 1})
		c01, err := BuildCopySchedule(p, p.Comm(), b0, right, b1, left)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		c10, err := BuildCopySchedule(p, p.Comm(), b1, gidx.NewSection([]int{0, 1}, []int{n, 2}), b0, right)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		c01.Execute(p, b0, b1)
		c10.Execute(p, b1, b0)

		// After the updates: b1's left column holds b0's original right
		// column, and b0's right column holds b1's ORIGINAL second
		// column (the first update only touched b1's column 0).
		lo, hi, _ := d.LocalBox(p.Rank())
		for i := lo[0]; i < hi[0]; i++ {
			if lo[1] == 0 { // I own column 0 of b1
				want := float64(100 + i*10 + (n - 1))
				if got := b1.Get([]int{i, 0}); got != want {
					t.Errorf("b1[%d,0]=%g want %g", i, got, want)
				}
			}
			if hi[1] == n { // I own column n-1 of b0
				want := float64(900 + i*10 + 1)
				if got := b0.Get([]int{i, n - 1}); got != want {
					t.Errorf("b0[%d,%d]=%g want %g", i, n-1, got, want)
				}
			}
		}
	})
}

func TestMultiblockGhostsAndSweep(t *testing.T) {
	// Two blocks, each with its own ghost schedule, swept in lockstep
	// with the interface columns treated as frozen boundary: each block
	// must evolve exactly like its half of the domain swept sequentially.
	const n, nprocs, steps = 8, 2, 3
	combined := make([]float64, n*2*n) // n rows, 2n columns
	for i := 0; i < n; i++ {
		for j := 0; j < 2*n; j++ {
			combined[i*2*n+j] = float64(i*3 + j*5)
		}
	}

	var got0, got1 []float64
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		d := distarray.MustBlock2D(n, n, nprocs)
		b0 := MustNewArray(d, p.Rank(), 1)
		b1 := MustNewArray(d, p.Rank(), 1)
		b0.FillGlobal(func(c []int) float64 { return combined[c[0]*2*n+c[1]] })
		b1.FillGlobal(func(c []int) float64 { return combined[c[0]*2*n+n+c[1]] })

		g0, err := BuildGhostSchedule(p, p.Comm(), b0)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		g1, err := BuildGhostSchedule(p, p.Comm(), b1)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		for s := 0; s < steps; s++ {
			g0.Exchange(p, b0)
			g1.Exchange(p, b1)
			Stencil5(p, b0)
			Stencil5(p, b1)
		}
		a0 := gatherGlobal(p.Comm(), b0)
		a1 := gatherGlobal(p.Comm(), b1)
		if p.Rank() == 0 {
			got0, got1 = a0, a1
		}
	})

	ref0 := make([]float64, n*n)
	ref1 := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ref0[i*n+j] = combined[i*2*n+j]
			ref1[i*n+j] = combined[i*2*n+n+j]
		}
	}
	for s := 0; s < steps; s++ {
		ref0 = sequentialStencil(ref0, n, n)
		ref1 = sequentialStencil(ref1, n, n)
	}
	for k := range ref0 {
		if got0[k] != ref0[k] || got1[k] != ref1[k] {
			t.Fatalf("element %d: block0 %g/%g block1 %g/%g", k, got0[k], ref0[k], got1[k], ref1[k])
		}
	}
}

func ExampleBuildCopySchedule() {
	// An inter-block interface: block l's right column drives block r's
	// left column.
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		d := distarray.MustBlock2D(4, 4, 1)
		l := MustNewArray(d, 0, 1)
		r := MustNewArray(d, 0, 1)
		l.FillGlobal(func(c []int) float64 { return 1 })
		cs, _ := BuildCopySchedule(p, p.Comm(),
			l, gidx.NewSection([]int{0, 3}, []int{4, 4}),
			r, gidx.NewSection([]int{0, 0}, []int{4, 1}))
		cs.Execute(p, l, r)
		fmt.Println(r.Get([]int{2, 0}))
	})
	// Output: 1
}
