// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the design-choice ablations and a few substrate
// microbenchmarks.  The per-iteration custom metrics are virtual
// milliseconds on the simulated machines (the reproduction's
// measurements); ns/op is the host cost of running the simulation.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package metachaos_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"metachaos"
	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/exp"
	"metachaos/internal/gidx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table1()
		b.ReportMetric(t.Rows[0].Values[0], "inspector-vms@2")
		b.ReportMetric(t.Rows[1].Values[0], "executor-vms@2")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table2()
		b.ReportMetric(t.Rows[2].Values[0], "coop-sched-vms@2")
		b.ReportMetric(t.Rows[4].Values[0], "dup-sched-vms@2")
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3, _ := exp.Tables34()
		b.ReportMetric(t3.Rows[0].Values[0], "sched-vms@2x2")
		b.ReportMetric(t3.Rows[2].Values[2], "sched-vms@8x8")
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t4 := exp.Tables34()
		b.ReportMetric(t4.Rows[0].Values[0], "copy-vms@2x2")
		b.ReportMetric(t4.Rows[2].Values[2], "copy-vms@8x8")
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table5()
		b.ReportMetric(t.Rows[1].Values[0], "parti-copy-vms@2")
		b.ReportMetric(t.Rows[3].Values[0], "mc-copy-vms@2")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Figure10()
		b.ReportMetric(t.Rows[4].Values[3], "total-vms@8procs")
	}
}

func BenchmarkAblationAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.AblationAggregation()
		b.ReportMetric(t.Rows[1].Values[0]/t.Rows[0].Values[0], "slowdown-x@2")
	}
}

func BenchmarkAblationTTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.AblationTTable()
		b.ReportMetric(t.Rows[0].Values[0]/t.Rows[1].Values[0], "paged-vs-replicated-x@2")
	}
}

func BenchmarkAblationScheduleReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.AblationScheduleReuse()
		b.ReportMetric(t.Rows[1].Values[0]/t.Rows[0].Values[0], "rebuild-slowdown-x@2")
	}
}

func BenchmarkAblationReliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.AblationReliability()
		b.ReportMetric(t.Rows[1].Values[0]/t.Rows[0].Values[0], "reliable-overhead-x@2")
	}
}

func BenchmarkAblationDtype(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.AblationDtype()
		b.ReportMetric(t.Rows[1].Values[0], "float64-wire-bytes/move")
		b.ReportMetric(t.Rows[1].Values[1]/t.Rows[1].Values[0], "float32-vs-float64-bytes-x")
	}
}

// Substrate microbenchmarks: host-side cost of the core machinery.

func BenchmarkMovePack(b *testing.B) {
	// The executor hot path in isolation: world and schedule are built
	// once outside the timer and one warm-up move grows every reusable
	// buffer (pool segments, message/request freelists), so allocs/op
	// exposes any per-move allocation in pack/ship/unpack.  With the
	// pooled data plane the steady state is 0 allocs/op, which
	// internal/core's TestMovePackAllocFree asserts.  ns/op is the host
	// cost of one collective move across all 4 processes.
	b.ReportAllocs()
	metachaos.RunSPMD(metachaos.Ideal(), 4, func(p *metachaos.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())
		src := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 4), p.Rank())
		dst := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 4), p.Rank())
		sched, err := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
			&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0, 0}, []int{128, 256})), Ctx: ctx},
			&metachaos.Spec{Lib: metachaos.HPF, Obj: dst,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{128, 0}, []int{256, 256})), Ctx: ctx},
			metachaos.Duplication)
		if err != nil {
			panic(err)
		}
		// Warm-up: message-struct freelists migrate from senders to
		// receivers one struct per move and only reach their steady-state
		// population (and start spilling back through the world pool)
		// after a few hundred moves.
		for m := 0; m < 300; m++ {
			sched.Move(src, dst)
			p.Comm().Barrier()
		}
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			sched.Move(src, dst)
			// The barrier keeps the one-directional pipeline bounded: ranks
			// 0-1 only send and would otherwise run arbitrarily far ahead
			// of the receivers, defeating segment recycling.
			p.Comm().Barrier()
		}
		if p.Rank() == 0 {
			b.StopTimer()
		}
	})
}

func BenchmarkMoveOverlap(b *testing.B) {
	// Block-to-cyclic 1-D redistribution over 8 processes: every process
	// exchanges a strided lane with every other, the worst case for a
	// fixed-order executor and the best case for arrival-order unpacking
	// of overlapped receives.  Same warm-schedule shape as MovePack;
	// TestMoveOverlapAllocFree asserts 0 allocs/op on the strided staging
	// path and the SP2 machine's timer-driven delivery too.
	const n = 1 << 15
	b.ReportAllocs()
	mpsim.RunSPMD(mpsim.SP2(), 8, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		bdist, err := distarray.NewDist(gidx.Shape{n}, []int{8}, []distarray.Kind{distarray.Block})
		if err != nil {
			panic(err)
		}
		cdist, err := distarray.NewDist(gidx.Shape{n}, []int{8}, []distarray.Kind{distarray.Cyclic})
		if err != nil {
			panic(err)
		}
		src := mbparti.MustNewArray(bdist, p.Rank(), 0)
		dst := mbparti.MustNewArray(cdist, p.Rank(), 0)
		all := core.NewSetOfRegions(gidx.NewSection([]int{0}, []int{n}))
		sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
			&core.Spec{Lib: mbparti.Library, Obj: src, Set: all, Ctx: ctx},
			&core.Spec{Lib: mbparti.Library, Obj: dst, Set: all, Ctx: ctx},
			core.Duplication)
		if err != nil {
			panic(err)
		}
		sched.Move(src, dst) // warm-up
		p.Comm().Barrier()
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			sched.Move(src, dst)
		}
		p.Comm().Barrier()
		if p.Rank() == 0 {
			b.StopTimer()
		}
	})
}

func BenchmarkMoveElementRuns(b *testing.B) {
	// HPF block vector -> CHAOS array over 8 processes, ownership and
	// linearization both seed-permuted: nearly every schedule run is a
	// single element, so pack and unpack take their strided per-element
	// paths — the coupling MovePack and MoveOverlap never exercise, and
	// the one where per-element descriptor copies show.
	const n, np = 8192, 8
	rng := rand.New(rand.NewSource(7))
	owners, region := rng.Perm(n), rng.Perm(n)
	b.ReportAllocs()
	metachaos.RunSPMD(metachaos.SP2(), np, func(p *metachaos.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())
		src := metachaos.NewHPFArray(metachaos.BlockVector(n, np), p.Rank())
		dst, err := metachaos.NewChaosArray(ctx, int32s(owners[p.Rank()*n/np:(p.Rank()+1)*n/np]))
		if err != nil {
			panic(err)
		}
		sched, err := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
			&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0}, []int{n})), Ctx: ctx},
			&metachaos.Spec{Lib: metachaos.Chaos, Obj: dst,
				Set: metachaos.NewSetOfRegions(metachaos.IndexRegion(int32s(region))), Ctx: ctx},
			metachaos.Cooperation)
		if err != nil {
			panic(err)
		}
		sched.Move(src, dst) // warm-up
		p.Comm().Barrier()
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			sched.Move(src, dst)
		}
		p.Comm().Barrier()
		if p.Rank() == 0 {
			b.StopTimer()
		}
	})
}

func BenchmarkNativeVsMC(b *testing.B) {
	// The paper's executor claim with a host clock beside the virtual
	// one: a warm Meta-Chaos move against the native library's own
	// executor on the same copy, 8 processes of the SP2, schedules built
	// outside the timer.  section is Table 5's shape (Multiblock Parti,
	// top half of a 2-D mesh onto the bottom half), indexed is Table 4's
	// (CHAOS, seed-permuted ownership and index lists on both sides).
	// ns/byte is host time per collective copy over the payload bytes
	// (elements moved x 8); the mc sides run at 0 allocs/op.
	const np, n = 8, 256
	secElems, idxElems := n/2*n, 1<<14
	rng := rand.New(rand.NewSource(7))
	perm32 := func() []int32 { return int32s(rng.Perm(idxElems)) }
	srcOwned, dstOwned, srcIdx, dstIdx := perm32(), perm32(), perm32(), perm32()

	// section returns both arrays and sections of the half-mesh copy.
	section := func(p *mpsim.Proc) (src, dst *mbparti.Array, srcSec, dstSec gidx.Section) {
		dist := distarray.MustBlock2D(n, n, np)
		return mbparti.MustNewArray(dist, p.Rank(), 0), mbparti.MustNewArray(dist, p.Rank(), 0),
			gidx.NewSection([]int{0, 0}, []int{n / 2, n}), gidx.NewSection([]int{n / 2, 0}, []int{n, n})
	}
	// indexed returns both irregularly distributed arrays.
	indexed := func(ctx *core.Ctx, p *mpsim.Proc) (src, dst *chaoslib.Array) {
		lo, hi := p.Rank()*idxElems/np, (p.Rank()+1)*idxElems/np
		src, err := chaoslib.NewArray(ctx, srcOwned[lo:hi])
		if err != nil {
			panic(err)
		}
		dst, err = chaoslib.NewArray(ctx, dstOwned[lo:hi])
		if err != nil {
			panic(err)
		}
		return src, dst
	}
	mcSchedule := func(ctx *core.Ctx, lib core.Library, src, dst core.DistObject, srcSet, dstSet *core.SetOfRegions) *core.Schedule {
		sched, err := core.ComputeSchedule(core.SingleProgram(ctx.Comm),
			&core.Spec{Lib: lib, Obj: src, Set: srcSet, Ctx: ctx},
			&core.Spec{Lib: lib, Obj: dst, Set: dstSet, Ctx: ctx}, core.Cooperation)
		if err != nil {
			panic(err)
		}
		return sched
	}

	for _, c := range []struct {
		name  string
		elems int
		setup func(p *mpsim.Proc) (copyOnce func())
	}{
		{"section/native", secElems, func(p *mpsim.Proc) func() {
			src, dst, srcSec, dstSec := section(p)
			cs, err := mbparti.BuildCopySchedule(p, p.Comm(), src, srcSec, dst, dstSec)
			if err != nil {
				panic(err)
			}
			return func() { cs.Execute(p, src, dst) }
		}},
		{"section/mc", secElems, func(p *mpsim.Proc) func() {
			src, dst, srcSec, dstSec := section(p)
			sched := mcSchedule(core.NewCtx(p, p.Comm()), mbparti.Library, src, dst,
				core.NewSetOfRegions(srcSec), core.NewSetOfRegions(dstSec))
			return func() { sched.Move(src, dst) }
		}},
		{"indexed/native", idxElems, func(p *mpsim.Proc) func() {
			ctx := core.NewCtx(p, p.Comm())
			src, dst := indexed(ctx, p)
			cs, err := chaoslib.BuildCopySchedule(ctx, src.Table(), dst.Table(), srcIdx, dstIdx)
			if err != nil {
				panic(err)
			}
			return func() { cs.Execute(src.Local(), dst.Local()) }
		}},
		{"indexed/mc", idxElems, func(p *mpsim.Proc) func() {
			ctx := core.NewCtx(p, p.Comm())
			src, dst := indexed(ctx, p)
			sched := mcSchedule(ctx, chaoslib.Library, src, dst,
				core.NewSetOfRegions(chaoslib.IndexRegion(srcIdx)), core.NewSetOfRegions(chaoslib.IndexRegion(dstIdx)))
			return func() { sched.Move(src, dst) }
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			mpsim.RunSPMD(mpsim.SP2(), np, func(p *mpsim.Proc) {
				copyOnce := c.setup(p)
				// Warm-up and per-copy barrier as in BenchmarkMovePack.
				for m := 0; m < 300; m++ {
					copyOnce()
					p.Comm().Barrier()
				}
				if p.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					copyOnce()
					p.Comm().Barrier()
				}
				if p.Rank() == 0 {
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(8*c.elems), "ns/byte")
				}
			})
		})
	}
}

func BenchmarkMoveObsOff(b *testing.B) {
	// The observability layer's opt-in contract, stated as a benchmark:
	// with no tracer attached a reuse move allocates nothing (the 0
	// allocs/op here is asserted as a hard test in
	// internal/core.TestMoveObsOffAllocFree).  A single-process world
	// makes the move a pure local copy with no scheduler hand-offs, so
	// the counters isolate the instrumented move path itself.
	metachaos.RunSPMD(metachaos.Ideal(), 1, func(p *metachaos.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())
		src := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 1), p.Rank())
		dst := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 1), p.Rank())
		sched, err := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
			&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0, 0}, []int{128, 256})), Ctx: ctx},
			&metachaos.Spec{Lib: metachaos.HPF, Obj: dst,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{128, 0}, []int{256, 256})), Ctx: ctx},
			metachaos.Duplication)
		if err != nil {
			panic(err)
		}
		sched.Move(src, dst) // warm-up grows the schedule's reusable buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched.Move(src, dst)
		}
		b.StopTimer()
	})
}

func BenchmarkChaosLookup(b *testing.B) {
	// Host cost of one collective translation-table lookup round
	// (16384 lookups over 4 processes); the table is built once, outside
	// the timed rounds.
	b.ReportAllocs()
	metachaos.RunSPMD(metachaos.Ideal(), 4, func(p *metachaos.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())
		var mine []int32
		for g := p.Rank(); g < 16384; g += 4 {
			mine = append(mine, int32(g))
		}
		arr, err := metachaos.NewChaosArray(ctx, mine)
		if err != nil {
			panic(err)
		}
		req := make([]int32, 4096)
		for k := range req {
			req[k] = int32((k*7 + p.Rank()) % 16384)
		}
		table := arr.Table()
		table.Lookup(ctx, req) // warm-up
		p.Comm().Barrier()
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			table.Lookup(ctx, req)
		}
		p.Comm().Barrier()
		if p.Rank() == 0 {
			b.StopTimer()
		}
	})
}

// BenchmarkFigure10Parallel is the sharded-scheduler scaling
// benchmark: the paper's client/server program (a Multiblock Parti
// client driving an HPF matrix-vector server through two Meta-Chaos
// schedules) at 128 clients and 1024 servers, 1152 ranks, run with one
// shard and then with one shard per P at the same GOMAXPROCS, so the
// two differ only in the engine's shard count.  The second reports the
// ratio as speedup@P; run it at -cpu 2,4 on a host with that many CPUs.
// Every run's result hash must equal a 2+8-process run's: the product
// does not depend on process or shard counts.
func BenchmarkFigure10Parallel(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	want := exp.RunClientServer(exp.CSConfig{ClientProcs: 2, ServerProcs: 8, Vectors: 8, Fingerprint: true}).ResultHash
	run := func(b *testing.B, shards int) {
		b.Setenv("MPSIM_SHARDS", strconv.Itoa(shards))
		for i := 0; i < b.N; i++ {
			r := exp.RunClientServer(exp.CSConfig{ClientProcs: 128, ServerProcs: 1024, Vectors: 8, Fingerprint: true})
			if r.ResultHash != want {
				b.Fatalf("%d shards: result hash %#x, the 2+8 run's is %#x", shards, r.ResultHash, want)
			}
			b.ReportMetric(r.Total()*1e3, "total-vms")
		}
	}
	var oneShard float64 // ns/op of the last shards=1 run
	b.Run("shards=1", func(b *testing.B) {
		run(b, 1)
		oneShard = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if procs == 1 {
		return
	}
	b.Run("shards=P", func(b *testing.B) {
		run(b, procs)
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(oneShard/ns, fmt.Sprintf("speedup@%d", procs))
	})
}
