package exp

import (
	"metachaos/internal/chaoslib"
	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
)

// Ablations for the design choices DESIGN.md calls out.  Each returns
// a Table comparing the chosen design against its alternative on the
// same workload.

// AblationAggregation quantifies message aggregation: executing the
// same schedule with one message per processor pair (the Meta-Chaos
// design, equal to a hand-crafted exchange) versus one message per
// element.
func AblationAggregation() *Table {
	procs := []int{2, 4, 8}
	v := sweepSP2(procs, 2, func(p *mpsim.Proc) []float64 {
		sched, src, dst := halfCopy(p, core.Float64, core.Duplication)
		agg := timePhase(p, p.Comm(), func() { sched.Move(src, dst) })
		scalar := timePhase(p, p.Comm(), func() { unaggregatedMove(p, p.Comm(), sched, src, dst) })
		return []float64{agg, scalar}
	})
	return &Table{
		ID:        "Ablation A1",
		Title:     "Message aggregation: one message per processor pair vs one per element (8192-element section copy)",
		Unit:      "msec",
		ColHeader: "processors",
		Cols:      colLabels(procs),
		Rows: []Row{
			{Label: "aggregated (Meta-Chaos)", Values: v[0]},
			{Label: "per-element messages", Values: v[1]},
		},
		Notes: []string{"aggregation is the paper's claim that Meta-Chaos sends exactly the hand-crafted message set"},
	}
}

// unaggregatedMove executes a schedule's transfers one element per
// message, reusing the schedule's routing but none of its batching.
func unaggregatedMove(p *mpsim.Proc, comm *mpsim.Comm, s *core.Schedule, src, dst *mbparti.Array) {
	const tag = 0x6000
	for i := range s.Sends {
		pl := &s.Sends[i]
		pl.Each(func(off int32) {
			p.ChargeMemOps(1)
			comm.Send(pl.Peer, tag, codec.Float64sToBytes(src.Local()[off:off+1]))
		})
	}
	s.EachLocal(func(so, do int32) {
		dst.Local()[do] = src.Local()[so]
	})
	p.ChargeMemOps(2 * s.LocalCount())
	p.ChargeCopy(8 * s.LocalCount())
	for i := range s.Recvs {
		pl := &s.Recvs[i]
		pl.Each(func(off int32) {
			data, _ := comm.Recv(pl.Peer, tag)
			dst.Local()[off] = codec.BytesToFloat64s(data)[0]
			p.ChargeMemOps(1)
		})
	}
}

// AblationTTable compares the paged (distributed) translation table
// against a fully replicated one: dereference latency versus the cost
// and memory of replication.
func AblationTTable() *Table {
	const points = 16384
	procs := []int{2, 4, 8}
	v := sweepSP2(procs, 3, func(p *mpsim.Proc) []float64 {
		ctx := core.NewCtx(p, p.Comm())
		tt := must(chaoslib.BuildTTable(ctx, densePerm(points, p.Size(), p.Rank()), nil))
		req := make([]int32, points/p.Size())
		for k := range req {
			req[k] = int32((k*7 + p.Rank()) % points)
		}
		paged := timePhase(p, p.Comm(), func() { tt.Lookup(ctx, req) })
		var rep *chaoslib.TTable
		build := timePhase(p, p.Comm(), func() { rep = tt.Replicate(ctx) })
		repl := timePhase(p, p.Comm(), func() { rep.Lookup(ctx, req) })
		return []float64{paged, repl, build}
	})
	return &Table{
		ID:        "Ablation A2",
		Title:     "Translation table: paged (distributed) vs replicated lookups, 16384-point distribution, one lookup per point",
		Unit:      "msec",
		ColHeader: "processors",
		Cols:      colLabels(procs),
		Rows: []Row{
			{Label: "paged lookup", Values: v[0]},
			{Label: "replicated lookup", Values: v[1]},
			{Label: "replication (one-time)", Values: v[2]},
		},
		Notes: []string{"replication trades a data-sized broadcast and table-sized memory for local lookups — the duplication method's bargain"},
	}
}

// AblationReliability quantifies the reliable transport's overhead on
// a fault-free network: the same section copy executed over the raw
// transport versus with sequencing, acks and end-to-end checksums
// enabled but no faults injected.
func AblationReliability() *Table {
	procs := []int{2, 4, 8}
	raw := make([]float64, len(procs))
	reliable := make([]float64, len(procs))
	// The row is the ten moves' total, not a per-move figure.
	run := func(nprocs int, reliable bool) float64 {
		cfg := sp2()
		cfg.Reliable = reliable
		v, _ := measure(cfg, nprocs, func(p *mpsim.Proc) []float64 {
			sched, src, dst := halfCopy(p, core.Float64, core.Cooperation)
			return []float64{timeIters(p, p.Comm(), executorIters, func() { sched.Move(src, dst) })}
		})
		return ms(v[0])
	}
	for i, nprocs := range procs {
		raw[i] = run(nprocs, false)
		reliable[i] = run(nprocs, true)
	}
	return &Table{
		ID:        "Ablation A5",
		Title:     "Reliable transport overhead on a fault-free network (8192-element section copy, 10 moves)",
		Unit:      "msec",
		ColHeader: "processors",
		Cols:      colLabels(procs),
		Rows: []Row{
			{Label: "raw transport", Values: raw},
			{Label: "reliable (acks + checksums)", Values: reliable},
		},
		Notes: []string{"the cost of exactly-once delivery when nothing goes wrong: per-message acks plus an 8-byte checksum trailer per peer payload"},
	}
}

// AblationDtype measures what the element type costs on the wire: the
// same 8192-element section copy executed with each supported scalar
// kind.  The schedule is type-independent (descriptors and routing
// carry indices, not data), so only the data phase scales with the
// element size: 4-byte kinds ship half the bytes of float64 and the
// move finishes proportionally sooner in virtual time.
func AblationDtype() *Table {
	dtypes := []core.ElemType{core.Float64, core.Float32, core.Int64, core.Int32}
	const nprocs = 4
	moveT := make([]float64, len(dtypes))
	wire := make([]float64, len(dtypes))
	// Wire bytes are isolated by differencing a build-only run from a
	// build-plus-moves run; the schedule build traffic is identical for
	// every element type.  The time is the moves' total (and moves may
	// be 0), so timeIters, not perIter.
	run := func(et core.ElemType, moves int) (float64, int64) {
		v, st := measure(sp2(), nprocs, func(p *mpsim.Proc) []float64 {
			sched, src, dst := halfCopy(p, et, core.Cooperation)
			return []float64{timeIters(p, p.Comm(), moves, func() { sched.Move(src, dst) })}
		})
		return v[0], st.TotalBytes()
	}
	for i, et := range dtypes {
		_, buildBytes := run(et, 0)
		t, totalBytes := run(et, executorIters)
		moveT[i] = ms(t)
		wire[i] = float64(totalBytes-buildBytes) / float64(executorIters)
	}
	return &Table{
		ID:        "Ablation A6",
		Title:     "Element type on the wire: 8192-element section copy at 4 processes",
		Unit:      "msec / bytes",
		ColHeader: "element type",
		Cols:      []string{"float64", "float32", "int64", "int32"},
		Rows: []Row{
			{Label: "data move (msec, 10 moves)", Values: moveT},
			{Label: "wire bytes per move", Values: wire},
		},
		Notes: []string{
			"schedule metadata is type-independent; the data phase ships elemsize × elements, so 4-byte kinds halve float64's wire bytes",
		},
	}
}

// densePerm deals a stride permutation of [0, n) to nprocs processes:
// a bijection as long as the stride is coprime with n.
func densePerm(n, nprocs, rank int) []int32 {
	stride := 7
	for n%stride == 0 {
		stride += 2
	}
	lo, hi := rank*n/nprocs, (rank+1)*n/nprocs
	out := make([]int32, hi-lo)
	for k := lo; k < hi; k++ {
		out[k-lo] = int32((k * stride) % n)
	}
	return out
}

// AblationScheduleReuse shows why inspectors are hoisted out of time
// step loops: ten iterations with one schedule versus rebuilding the
// schedule every iteration.
func AblationScheduleReuse() *Table {
	perm := meshPerm()
	procs := []int{2, 4, 8}
	v := sweepSP2(procs, 2, func(p *mpsim.Proc) []float64 {
		a, x, build := meshRemap(p, perm)
		reuse := timePhase(p, p.Comm(), func() {
			s := build()
			for it := 0; it < executorIters; it++ {
				s.Move(a, x)
			}
		})
		rebuild := timeIters(p, p.Comm(), executorIters, func() { build().Move(a, x) })
		return []float64{reuse, rebuild}
	})
	return &Table{
		ID:        "Ablation A3",
		Title:     "Schedule reuse over 10 iterations of the regular/irregular remap vs rebuilding every iteration",
		Unit:      "msec",
		ColHeader: "processors",
		Cols:      colLabels(procs),
		Rows: []Row{
			{Label: "build once, reuse", Values: v[0]},
			{Label: "rebuild every iteration", Values: v[1]},
		},
		Notes: []string{"amortizing the inspector is what makes Meta-Chaos overhead acceptable in iterative codes (Section 4.1.4)"},
	}
}

// AblationRLE measures the run-length compression of cooperation wire
// formats on a regular transfer (where it compresses) and the
// irregular remap (where it cannot).
func AblationRLE() *Table {
	// Regular: Table 5's section copy at 4 processes.  Irregular:
	// Table 2's mesh remap at 4 processes.  Reported as schedule-build
	// time; the alternative (no compression) is approximated by the
	// bytes shipped, reported in the notes via message statistics.
	reg, regSt := measure(sp2(), 4, func(p *mpsim.Proc) []float64 {
		src, dst, srcSec, dstSec := meshHalves(p, t5N)
		return []float64{timePhase(p, p.Comm(), func() {
			sectionSchedule(p, src, srcSec, dst, dstSec, core.Cooperation)
		})}
	})
	perm := meshPerm()
	irr, irrSt := measure(sp2(), 4, func(p *mpsim.Proc) []float64 {
		_, _, build := meshRemap(p, perm)
		return []float64{timePhase(p, p.Comm(), func() { build() })}
	})
	return &Table{
		ID:        "Ablation A4",
		Title:     "Run-length compression of cooperation schedule messages (4 processes)",
		Unit:      "msec / bytes",
		ColHeader: "workload",
		Cols:      []string{"regular 500k", "irregular 65k"},
		Rows: []Row{
			{Label: "schedule build (msec)", Values: []float64{ms(reg[0]), ms(irr[0])}},
			{Label: "bytes on the wire", Values: []float64{float64(regSt.TotalBytes()), float64(irrSt.TotalBytes())}},
		},
		Notes: []string{
			"regular sections compress to a few arithmetic runs (bytes << 12B/element); irregular mappings stay literal",
		},
	}
}
