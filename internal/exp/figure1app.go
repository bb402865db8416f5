package exp

import (
	"metachaos/internal/core"
	"metachaos/internal/mpsim"
)

// Extension experiment A5: the complete Figure 1 application.  The
// paper's motivating program runs both sweeps AND both inter-mesh
// copies every time step; the tables measure those pieces separately.
// This experiment times the whole step and reports what fraction
// Meta-Chaos interaction costs — the quantitative backing for the
// paper's design premise that "interactions between libraries will be
// relatively infrequent and restricted to simple coarse-grained
// operations", so the meta-library's overhead stays a modest share of
// the computation it enables.

// Figure1Application returns the end-to-end cost profile of the
// coupled program over the Table 1 process counts.
func Figure1Application() *Table {
	perm := meshPerm()
	ia, ib := meshEdges(perm)
	body := func(p *mpsim.Proc) []float64 {
		m := newCoupledMeshes(p, p.Comm(), perm, ia, ib)
		var sched *core.Schedule
		insp := timePhase(p, p.Comm(), func() {
			m.inspector(p, p.Comm())
			sched = remapSchedule(m.ctx, m.a, m.x, perm, core.Cooperation)
		})
		sweep := perIter(p, p.Comm(), executorIters, func() { m.executor(p) })
		cpy := perIter(p, p.Comm(), executorIters, func() {
			sched.Move(m.a, m.x)        // Loop 2
			sched.MoveReverse(m.a, m.x) // Loop 4
		})
		return []float64{insp, sweep, cpy}
	}
	// Not sweepSP2: the share row is a ratio of seconds, not a time.
	inspector := make([]float64, len(table1Procs))
	sweepT := make([]float64, len(table1Procs))
	copyT := make([]float64, len(table1Procs))
	share := make([]float64, len(table1Procs))
	for i, nprocs := range table1Procs {
		v, _ := measure(sp2(), nprocs, body)
		inspector[i], sweepT[i], copyT[i] = ms(v[0]), ms(v[1]), ms(v[2])
		share[i] = 100 * v[2] / (v[1] + v[2])
	}
	return &Table{
		ID:        "Extension A5",
		Title:     "The complete Figure 1 application: all inspectors (total) plus per-step sweeps and inter-mesh Meta-Chaos copies, IBM SP2",
		Unit:      "msec (share in %)",
		ColHeader: "processors",
		Cols:      colLabels(table1Procs),
		Rows: []Row{
			{Label: "inspectors + MC schedule", Values: inspector},
			{Label: "mesh sweeps per step", Values: sweepT},
			{Label: "inter-mesh copies per step", Values: copyT},
			{Label: "Meta-Chaos share of a step (%)", Values: share},
		},
		Notes: []string{
			"the coupling (full-mesh remap, both directions, every step) costs a bounded share of the step at every scale",
			"the one-time inspector amortizes over the time-step loop as in Section 4.1.4",
		},
	}
}
