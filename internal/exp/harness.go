package exp

import (
	"fmt"

	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
)

// The measurement harness every table, figure and ablation is written
// in: time a phase between barriers, repeat it N times, publish rank
// 0's numbers, sweep that over process counts.

// ms converts seconds to milliseconds.
func ms(s float64) float64 { return s * 1000 }

// timePhase measures f between barriers, returning elapsed virtual
// seconds; with the closing barrier the result approximates the
// slowest process's time on every rank.
func timePhase(p *mpsim.Proc, comm *mpsim.Comm, f func()) float64 {
	comm.Barrier()
	t0 := p.Clock()
	f()
	comm.Barrier()
	return p.Clock() - t0
}

// timeIters measures n back-to-back calls of f as one phase and
// returns their total (n may be 0: an empty phase costs the barriers).
func timeIters(p *mpsim.Proc, comm *mpsim.Comm, n int, f func()) float64 {
	return timePhase(p, comm, func() {
		for it := 0; it < n; it++ {
			f()
		}
	})
}

// perIter is timeIters divided by n: the per-iteration cost of a
// reused schedule.
func perIter(p *mpsim.Proc, comm *mpsim.Comm, n int, f func()) float64 {
	return timeIters(p, comm, n, f) / float64(n)
}

// must unwraps a constructor's result.  Every configuration here is
// static, so a failed constructor is a bug in the experiment, not an
// input error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// check is must for a call that returns only an error.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// mustSchedule is core.ComputeSchedule for the experiments' static
// couplings.
func mustSchedule(g *core.Coupling, src, dst *core.Spec, method core.Method) *core.Schedule {
	return must(core.ComputeSchedule(g, src, dst, method))
}

// measure runs body as one SPMD program of nprocs processes under cfg
// (machine, transport, tracer) and returns what rank 0's body returned
// plus the run's statistics.  Every rank measures the same
// barrier-to-barrier spans; rank 0 alone publishes them, because
// concurrent ranks must not share a write under the sharded scheduler.
func measure(cfg mpsim.Config, nprocs int, body func(p *mpsim.Proc) []float64) ([]float64, *mpsim.Stats) {
	var out []float64
	cfg.Programs = []mpsim.ProgramSpec{{Name: "spmd", Procs: nprocs, Body: func(p *mpsim.Proc) {
		if vals := body(p); p.Rank() == 0 {
			out = vals
		}
	}}}
	return out, mpsim.Run(cfg)
}

// sp2 is the machine of Tables 1-5 and the ablations.
func sp2() mpsim.Config { return mpsim.Config{Machine: mpsim.SP2()} }

// sweepSP2 runs body, which returns nvals virtual-second measurements,
// on the SP2 at each process count and returns one series per value in
// msec: out[k][i] is value k at procs[i].  Each count is its own
// deterministic simulation, so the order runs happen in changes
// nothing; a panic in body ends the sweep with that panic.
func sweepSP2(procs []int, nvals int, body func(p *mpsim.Proc) []float64) [][]float64 {
	out := make([][]float64, nvals)
	for k := range out {
		out[k] = make([]float64, len(procs))
	}
	for i, nprocs := range procs {
		vals, _ := measure(sp2(), nprocs, body)
		if len(vals) != nvals {
			panic(fmt.Sprintf("exp: sweep body returned %d values, want %d", len(vals), nvals))
		}
		for k, v := range vals {
			out[k][i] = ms(v)
		}
	}
	return out
}

// sectionSchedule builds the schedule copying srcSec of src onto
// dstSec of dst, two Multiblock Parti arrays of the calling program.
func sectionSchedule(p *mpsim.Proc, src *mbparti.Array, srcSec gidx.Section,
	dst *mbparti.Array, dstSec gidx.Section, method core.Method) *core.Schedule {
	ctx := core.NewCtx(p, p.Comm())
	return mustSchedule(core.SingleProgram(p.Comm()),
		&core.Spec{Lib: mbparti.Library, Obj: src, Set: core.NewSetOfRegions(srcSec), Ctx: ctx},
		&core.Spec{Lib: mbparti.Library, Obj: dst, Set: core.NewSetOfRegions(dstSec), Ctx: ctx},
		method)
}

// halfCopy sets up the transfer ablations A1, A5 and A6 time: the
// first half of one 16384-element block-distributed array onto the
// second half of another.  A 1-D layout keeps the halves on different
// processes at every process count, so the copy always crosses the
// network.
func halfCopy(p *mpsim.Proc, et core.ElemType, method core.Method) (s *core.Schedule, src, dst *mbparti.Array) {
	const n = 16384
	dist := must(distarray.NewDist(gidx.Shape{n}, []int{p.Size()}, []distarray.Kind{distarray.Block}))
	src = must(mbparti.NewArrayTyped(dist, p.Rank(), 0, et))
	dst = must(mbparti.NewArrayTyped(dist, p.Rank(), 0, et))
	s = sectionSchedule(p, src, gidx.NewSection([]int{0}, []int{n / 2}),
		dst, gidx.NewSection([]int{n / 2}, []int{n}), method)
	return s, src, dst
}

// remapSchedule builds Table 2's transfer: the whole structured mesh a
// onto the unstructured node data x through the numbering perm.
func remapSchedule(ctx *core.Ctx, a *mbparti.Array, x *chaoslib.Array, perm []int32, method core.Method) *core.Schedule {
	regSet, irrSet := meshMapping(perm)
	return mustSchedule(core.SingleProgram(ctx.Comm),
		&core.Spec{Lib: mbparti.Library, Obj: a, Set: regSet, Ctx: ctx},
		&core.Spec{Lib: chaoslib.Library, Obj: x, Set: irrSet, Ctx: ctx},
		method)
}

// meshRemap sets up Table 2's regular/irregular remap without the
// sweeps' halo and edge lists, for ablations A3 and A4: the two meshes
// and a builder of the cooperation schedule between them.
func meshRemap(p *mpsim.Proc, perm []int32) (a *mbparti.Array, x *chaoslib.Array, build func() *core.Schedule) {
	ctx := core.NewCtx(p, p.Comm())
	a = mbparti.MustNewArray(regDist(p.Size()), p.Rank(), 0)
	x = must(chaoslib.NewArray(ctx, irregOwned(perm, p.Size(), p.Rank())))
	return a, x, func() *core.Schedule { return remapSchedule(ctx, a, x, perm, core.Cooperation) }
}

// colLabels renders integer column labels.
func colLabels(vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprint(v)
	}
	return out
}
