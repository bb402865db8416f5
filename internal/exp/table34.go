package exp

import (
	"fmt"

	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
)

// Tables 3 and 4: the same coupled-mesh remap, but split into two
// separate programs — Preg running the Multiblock Parti structured
// mesh and Pirreg the CHAOS unstructured mesh — exchanging data with
// Meta-Chaos (cooperation method; duplication would ship a translation
// table between the programs).

var table34Grid = []int{2, 4, 8}

// Tables34 runs the two-program experiment over the full process grid
// and returns Table 3 (schedule computation) and Table 4 (copy per
// iteration).
func Tables34() (*Table, *Table) {
	perm := meshPerm()
	sched := make([][]float64, len(table34Grid))
	copyT := make([][]float64, len(table34Grid))
	for i, nReg := range table34Grid {
		sched[i] = make([]float64, len(table34Grid))
		copyT[i] = make([]float64, len(table34Grid))
		for j, nIrr := range table34Grid {
			s, c := runCoupledPrograms(perm, nReg, nIrr)
			sched[i][j] = ms(s)
			copyT[i][j] = ms(c)
		}
	}

	t3 := &Table{
		ID:        "Table 3",
		Title:     "Meta-Chaos schedule computation for 2 separate programs (rows: Preg processes; cols: Pirreg processes), IBM SP2",
		Unit:      "msec",
		ColHeader: "Preg \\ Pirreg",
		Cols:      colLabels(table34Grid),
		Notes: []string{
			"expected shape: time set by Pirreg (the cooperation work is the irregular dereference), nearly flat in Preg",
		},
	}
	paper3 := [][]float64{{1350, 726, 396}, {1377, 738, 403}, {1381, 718, 398}}
	for i, nReg := range table34Grid {
		t3.Rows = append(t3.Rows, Row{Label: fmt.Sprint(nReg), Values: sched[i], Paper: paper3[i]})
	}

	t4 := &Table{
		ID:        "Table 4",
		Title:     "Meta-Chaos data copy per iteration for 2 separate programs (rows: Preg processes; cols: Pirreg processes), IBM SP2",
		Unit:      "msec",
		ColHeader: "Preg \\ Pirreg",
		Cols:      colLabels(table34Grid),
		Notes: []string{
			"expected shape: copy time limited by the smaller program; symmetric between the programs",
		},
	}
	paper4 := [][]float64{{63, 61, 66}, {55, 33, 36}, {61, 32, 21}}
	for i, nReg := range table34Grid {
		t4.Rows = append(t4.Rows, Row{Label: fmt.Sprint(nReg), Values: copyT[i], Paper: paper4[i]})
	}
	return t3, t4
}

// runCoupledPrograms runs Preg and Pirreg on disjoint SP2 nodes and
// returns (schedule seconds, per-iteration copy seconds).
func runCoupledPrograms(perm []int32, nReg, nIrr int) (schedT, copyT float64) {
	regSet, irrSet := meshMapping(perm)
	mpsim.Run(mpsim.Config{
		Machine: mpsim.SP2(),
		Programs: []mpsim.ProgramSpec{
			{Name: "Preg", Procs: nReg, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				a := mbparti.MustNewArray(regDist(nReg), p.Rank(), 1)
				a.FillGlobal(func(c []int) float64 { return float64(c[0]*regN + c[1]) })
				coupling := must(core.CoupleByName(p, "Preg", "Pirreg"))
				var sched *core.Schedule
				st := timePhase(p, coupling.Union, func() {
					sched = mustSchedule(coupling,
						&core.Spec{Lib: mbparti.Library, Obj: a, Set: regSet, Ctx: ctx}, nil, core.Cooperation)
				})
				ct := perIter(p, coupling.Union, executorIters, func() {
					sched.MoveSend(a)
					sched.MoveReverseRecv(a)
				})
				if p.Rank() == 0 {
					schedT, copyT = st, ct
				}
			}},
			{Name: "Pirreg", Procs: nIrr, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				x := must(chaoslib.NewArray(ctx, irregOwned(perm, nIrr, p.Rank())))
				coupling := must(core.CoupleByName(p, "Preg", "Pirreg"))
				var sched *core.Schedule
				timePhase(p, coupling.Union, func() {
					sched = mustSchedule(coupling, nil,
						&core.Spec{Lib: chaoslib.Library, Obj: x, Set: irrSet, Ctx: ctx}, core.Cooperation)
				})
				timeIters(p, coupling.Union, executorIters, func() {
					sched.MoveRecv(x)
					sched.MoveReverseSend(x)
				})
			}},
		},
	})
	return schedT, copyT
}

func regDist(nprocs int) *distarray.Dist {
	return distarray.MustBlock2D(regN, regN, nprocs)
}
