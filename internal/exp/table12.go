package exp

import (
	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/mpsim"
)

// table1Procs are the SP2 process counts of Tables 1 and 2.
var table1Procs = []int{2, 4, 8, 16}

const executorIters = 10

// Table1 reproduces Table 1: inspector time (total) and executor time
// (per iteration) for the sweeps over the regular and irregular meshes
// in one program on the SP2.
func Table1() *Table {
	perm := meshPerm()
	ia, ib := meshEdges(perm)
	v := sweepSP2(table1Procs, 2, func(p *mpsim.Proc) []float64 {
		m := newCoupledMeshes(p, p.Comm(), perm, ia, ib)
		insp := timePhase(p, p.Comm(), func() { m.inspector(p, p.Comm()) })
		exec := perIter(p, p.Comm(), executorIters, func() { m.executor(p) })
		return []float64{insp, exec}
	})
	return &Table{
		ID:        "Table 1",
		Title:     "Inspector (total) and executor (per iteration) times for regular and irregular meshes in one program, IBM SP2",
		Unit:      "msec",
		ColHeader: "processors",
		Cols:      colLabels(table1Procs),
		Rows: []Row{
			{Label: "inspector", Values: v[0], Paper: []float64{1533, 1340, 667, 684}},
			{Label: "executor", Values: v[1], Paper: []float64{91, 66, 65, 53}},
		},
		Notes: []string{
			"expected shape: both fall with more processors; executor scaling flattens as communication grows",
		},
	}
}

// Table2 reproduces Table 2: schedule build time (total) and data copy
// time (per iteration, one remap each way) for moving data between the
// regular and irregular meshes in one program, comparing native CHAOS
// against Meta-Chaos with the cooperation and duplication methods.
func Table2() *Table {
	perm := meshPerm()
	ia, ib := meshEdges(perm)
	chaos := sweepSP2(table1Procs, 2, func(p *mpsim.Proc) []float64 {
		m := newCoupledMeshes(p, p.Comm(), perm, ia, ib)
		// Native CHAOS: the regular mesh is wrapped in a replicated
		// pointwise translation table (storing the correspondence
		// explicitly — the memory cost the paper criticises).  Creating
		// that table is data distribution, done before the timed
		// schedule build.
		regIdx, regOffs := partiPointwise(m)
		regRep := must(chaoslib.BuildTTable(m.ctx, regIdx, regOffs)).Replicate(m.ctx)
		linear := identity32(irrPoints)
		var cs *chaoslib.CopySchedule
		st := timePhase(p, p.Comm(), func() {
			cs = must(chaoslib.BuildCopySchedule(m.ctx, regRep, m.x.Table(), linear, perm))
		})
		ct := perIter(p, p.Comm(), executorIters, func() {
			cs.Execute(m.a.Local(), m.x.Local())
			cs.ExecuteReverse(m.x.Local(), m.a.Local())
		})
		return []float64{st, ct}
	})
	metaChaos := func(method core.Method) [][]float64 {
		return sweepSP2(table1Procs, 2, func(p *mpsim.Proc) []float64 {
			m := newCoupledMeshes(p, p.Comm(), perm, ia, ib)
			var s *core.Schedule
			st := timePhase(p, p.Comm(), func() { s = remapSchedule(m.ctx, m.a, m.x, perm, method) })
			ct := perIter(p, p.Comm(), executorIters, func() {
				s.Move(m.a, m.x)
				s.MoveReverse(m.a, m.x)
			})
			return []float64{st, ct}
		})
	}
	coop, dup := metaChaos(core.Cooperation), metaChaos(core.Duplication)
	return &Table{
		ID:        "Table 2",
		Title:     "Schedule build (total) and data copy (per iteration) between regular and irregular meshes in one program, IBM SP2",
		Unit:      "msec",
		ColHeader: "processors",
		Cols:      colLabels(table1Procs),
		Rows: []Row{
			{Label: "Chaos schedule", Values: chaos[0], Paper: []float64{1099, 830, 437, 215}},
			{Label: "Chaos copy", Values: chaos[1], Paper: []float64{64, 52, 38, 33}},
			{Label: "Meta-Chaos coop schedule", Values: coop[0], Paper: []float64{1509, 832, 436, 215}},
			{Label: "Meta-Chaos coop copy", Values: coop[1], Paper: []float64{71, 50, 32, 21}},
			{Label: "Meta-Chaos dup schedule", Values: dup[0], Paper: []float64{2768, 1645, 1025, 745}},
			{Label: "Meta-Chaos dup copy", Values: dup[1], Paper: []float64{70, 50, 33, 21}},
		},
		Notes: []string{
			"expected shape: cooperation schedule ~ Chaos schedule (both dominated by one distributed dereference of the irregular side)",
			"expected shape: duplication schedule ~ 2x (dereferences each side twice)",
			"expected shape: Meta-Chaos copy <= Chaos copy (no extra staging copy or indirection)",
		},
	}
}

// partiPointwise lists the structured mesh's locally owned points as
// (global linear index, padded local offset) pairs, the explicit
// pointwise correspondence native CHAOS needs.
func partiPointwise(m *coupledMeshes) (idx, offs []int32) {
	dist := m.a.Dist()
	lo, hi, _ := dist.LocalBox(m.a.Rank())
	for i := lo[0]; i < hi[0]; i++ {
		for j := lo[1]; j < hi[1]; j++ {
			idx = append(idx, int32(i*regN+j))
			offs = append(offs, int32(m.a.OffsetOf([]int{i, j})))
		}
	}
	m.ctx.P.ChargeMemOps(len(idx))
	return idx, offs
}

func identity32(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
