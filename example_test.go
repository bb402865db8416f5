package metachaos_test

import (
	"fmt"

	"metachaos"
)

// Example moves the top half of an HPF matrix onto a CHAOS irregular
// array inside one program — the smallest complete Meta-Chaos
// exchange.
func Example() {
	metachaos.RunSPMD(metachaos.Ideal(), 2, func(p *metachaos.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())

		src := metachaos.NewHPFArray(metachaos.Block2D(4, 4, 2), p.Rank())
		src.FillGlobal(func(c []int) float64 { return float64(10*c[0] + c[1]) })

		// CHAOS array of 8 points; rank 0 owns odd points, rank 1 even.
		var mine []int32
		for g := 1 - p.Rank(); g < 8; g += 2 {
			mine = append(mine, int32(g))
		}
		dst, err := metachaos.NewChaosArray(ctx, mine)
		if err != nil {
			panic(err)
		}

		sched, err := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
			&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0, 0}, []int{2, 4})), Ctx: ctx},
			&metachaos.Spec{Lib: metachaos.Chaos, Obj: dst,
				Set: metachaos.NewSetOfRegions(metachaos.IndexRegion{0, 1, 2, 3, 4, 5, 6, 7}), Ctx: ctx},
			metachaos.Cooperation)
		if err != nil {
			panic(err)
		}
		sched.Move(src, dst)

		if p.Rank() == 1 { // rank 1 owns the even points 0,2,4,6
			for k, g := range dst.Indices() {
				fmt.Printf("x[%d] = %.0f\n", g, dst.GetLocal(k))
			}
		}
	})
	// Output:
	// x[0] = 0
	// x[2] = 2
	// x[4] = 10
	// x[6] = 12
}

// ExampleSchedule_MoveReverse shows schedule symmetry: one schedule
// carries data in both directions.
func ExampleSchedule_MoveReverse() {
	metachaos.RunSPMD(metachaos.Ideal(), 1, func(p *metachaos.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())
		a := metachaos.NewHPFArray(metachaos.BlockVector(6, 1), 0)
		b := metachaos.NewHPFArray(metachaos.BlockVector(6, 1), 0)
		a.FillGlobal(func(c []int) float64 { return float64(c[0]) })

		sched, _ := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
			&metachaos.Spec{Lib: metachaos.HPF, Obj: a,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0}, []int{3})), Ctx: ctx},
			&metachaos.Spec{Lib: metachaos.HPF, Obj: b,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{3}, []int{6})), Ctx: ctx},
			metachaos.Duplication)
		sched.Move(a, b)        // b[3:6] = a[0:3]
		b.Local()[4] = 99       // change one element (one process: local = global)
		sched.MoveReverse(a, b) // a[0:3] = b[3:6]
		fmt.Println(a.Get([]int{0}), a.Get([]int{1}), a.Get([]int{2}))
	})
	// Output: 0 99 2
}

// ExampleRCB partitions points geometrically before a remap.
func ExampleRCB() {
	xs := []float64{0, 1, 10, 11}
	ys := []float64{0, 0, 0, 0}
	assign, _ := metachaos.RCB([][]float64{xs, ys}, 2)
	fmt.Println(assign)
	// Output: [0 0 1 1]
}
