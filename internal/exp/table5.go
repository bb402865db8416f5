package exp

import (
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
)

// Table 5: two 1000x1000 structured meshes in one program, both
// distributed by Multiblock Parti; the top half of one is copied onto
// the bottom half of the other every time step (a multiblock CFD
// inter-block boundary update).  This pits Meta-Chaos against the
// specialized library doing exactly what it was optimized for.

const t5N = 1000

var table5Procs = []int{2, 4, 8, 16}

// meshHalves is the Table-5 workload at size n: two n x n block
// meshes, the first filled, and the sections naming the top half of
// one and the bottom half of the other.
func meshHalves(p *mpsim.Proc, n int) (src, dst *mbparti.Array, srcSec, dstSec gidx.Section) {
	dist := distarray.MustBlock2D(n, n, p.Size())
	src = mbparti.MustNewArray(dist, p.Rank(), 0)
	dst = mbparti.MustNewArray(dist, p.Rank(), 0)
	src.FillGlobal(func(c []int) float64 { return float64(c[0]*n + c[1]) })
	return src, dst, gidx.NewSection([]int{0, 0}, []int{n / 2, n}), gidx.NewSection([]int{n / 2, 0}, []int{n, n})
}

// ProfileSection returns the SPMD body of the Table-5 copy at size n
// (cooperation method, iters reuses of the one schedule), for running
// under whatever mpsim.Config one wants to look at it through — a
// tracer, a fault profile, a crash plan.  cmd/mctrace's section
// workload and the trace tests are its callers; runs are deterministic,
// so a trace of a given configuration is a stable artifact.
func ProfileSection(n, iters int) func(p *mpsim.Proc) {
	return func(p *mpsim.Proc) {
		src, dst, srcSec, dstSec := meshHalves(p, n)
		s := sectionSchedule(p, src, srcSec, dst, dstSec, core.Cooperation)
		for it := 0; it < iters; it++ {
			s.Move(src, dst)
		}
	}
}

// Table5 reproduces Table 5.
func Table5() *Table {
	parti := sweepSP2(table5Procs, 2, func(p *mpsim.Proc) []float64 {
		src, dst, srcSec, dstSec := meshHalves(p, t5N)
		var cs *mbparti.CopySchedule
		st := timePhase(p, p.Comm(), func() {
			cs = must(mbparti.BuildCopySchedule(p, p.Comm(), src, srcSec, dst, dstSec))
		})
		ct := perIter(p, p.Comm(), executorIters, func() { cs.Execute(p, src, dst) })
		return []float64{st, ct}
	})
	metaChaos := func(method core.Method) [][]float64 {
		return sweepSP2(table5Procs, 2, func(p *mpsim.Proc) []float64 {
			src, dst, srcSec, dstSec := meshHalves(p, t5N)
			var s *core.Schedule
			st := timePhase(p, p.Comm(), func() { s = sectionSchedule(p, src, srcSec, dst, dstSec, method) })
			ct := perIter(p, p.Comm(), executorIters, func() { s.Move(src, dst) })
			return []float64{st, ct}
		})
	}
	coop, dup := metaChaos(core.Cooperation), metaChaos(core.Duplication)
	return &Table{
		ID:        "Table 5",
		Title:     "Schedule build (total) and data copy (per iteration) for two structured meshes in one program, IBM SP2",
		Unit:      "msec",
		ColHeader: "processors",
		Cols:      colLabels(table5Procs),
		Rows: []Row{
			{Label: "Multiblock Parti schedule", Values: parti[0], Paper: []float64{19, 11, 10, 9}},
			{Label: "Multiblock Parti copy", Values: parti[1], Paper: []float64{467, 195, 101, 53}},
			{Label: "Meta-Chaos coop schedule", Values: coop[0], Paper: []float64{29, 29, 20, 25}},
			{Label: "Meta-Chaos coop copy", Values: coop[1], Paper: []float64{396, 198, 102, 52}},
			{Label: "Meta-Chaos dup schedule", Values: dup[0], Paper: []float64{24, 20, 14, 13}},
			{Label: "Meta-Chaos dup copy", Values: dup[1], Paper: []float64{396, 198, 102, 52}},
		},
		Notes: []string{
			"expected shape: Parti schedule < Meta-Chaos dup < Meta-Chaos coop (coop is the only one that communicates)",
			"expected shape: copy times essentially identical; Meta-Chaos wins at 2 procs where local copies dominate (no staging buffer)",
		},
	}
}
