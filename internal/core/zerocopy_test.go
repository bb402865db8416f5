package core

import (
	"sync/atomic"
	"testing"

	"metachaos/internal/bufpool"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
)

// TestMoveBytesCopiedDrop pins the zero-copy data plane's headline
// claim: for a stride-1 section move the bytes actually memcpy'd are
// strictly below what the old copy-based executor spent, which was one
// full pack copy on the sender plus one full flatten on the receiver
// (≈ sent + received wire bytes).  Stride-1 runs ship as views of
// source storage and unpack straight into destination storage, so only
// settle-time materialization and local lanes still copy.
func TestMoveBytesCopiedDrop(t *testing.T) {
	const nprocs, moves = 4, 4
	var copied, sent, recv atomic.Int64 // ranks on different shards run in parallel
	mpsim.RunSPMD(mpsim.SP2(), nprocs, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(256, nprocs, 1, p.Rank())
		dst := newTestObj(256, nprocs, 1, p.Rank())
		src.fillDistinct(1000)
		sched, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(regions(seqIdx(0, 120, 1), 3)...), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(regions(seqIdx(100, 120, 1), 2)...), Ctx: ctx},
			Cooperation)
		if err != nil {
			t.Errorf("ComputeSchedule: %v", err)
			return
		}
		sched.Move(src, dst) // warm-up
		before := p.LocalStats()
		for i := 0; i < moves; i++ {
			res := sched.Move(src, dst)
			copied.Add(int64(res.BytesCopied))
		}
		after := p.LocalStats()
		sent.Add(after.BytesSent - before.BytesSent)
		recv.Add(after.BytesRecv - before.BytesRecv)
	})
	if sent.Load() == 0 || recv.Load() == 0 {
		t.Fatalf("move exchanged no wire bytes (sent %d, recv %d); test is vacuous", sent.Load(), recv.Load())
	}
	oldCopied := sent.Load() + recv.Load() // the copy-based executor's pack + flatten
	t.Logf("bytes copied %d vs copy-based executor's %d (wire: %d sent, %d recv)", copied.Load(), oldCopied, sent.Load(), recv.Load())
	if copied.Load() >= oldCopied {
		t.Errorf("zero-copy plane copied %d bytes over %d moves, not below the copy-based executor's %d",
			copied.Load(), moves, oldCopied)
	}
}

// TestMoveBytesCopiedCounter checks that the "move.bytes_copied"
// metric accumulates exactly the per-move BytesCopied results across
// ranks, and that a strided source (which must stage its runs into
// pooled segments) reports a non-zero copy count.
func TestMoveBytesCopiedCounter(t *testing.T) {
	tr := obs.NewTracer()
	var copied int64
	moveWorld(t, tr, func(p *mpsim.Proc, sched *Schedule, src, dst *testObj) {
		for i := 0; i < 2; i++ {
			res := sched.Move(src, dst)
			copied += int64(res.BytesCopied)
		}
	})
	if copied == 0 {
		t.Fatal("strided move reported 0 bytes copied; staging should be counted")
	}
	if got := tr.MetricsRegistry().Counter("move.bytes_copied").Value(); got != copied {
		t.Errorf("move.bytes_copied counter = %d, summed MoveResult.BytesCopied = %d", got, copied)
	}
}

// lateFaults leaves the schedule exchange alone and, from virtual
// second 1 on, duplicates every data transmission (dup) or cuts the
// link between ranks 0 and 1 (cut).  Stateless, so shards may consult
// it concurrently.
type lateFaults struct{ dup, cut bool }

func (f lateFaults) Decide(from, to, attempt, bytes int, now float64) mpsim.FaultDecision {
	d := mpsim.FaultDecision{CorruptBit: -1}
	if now >= 1 {
		d.Drop = f.cut && from+to == 1
		d.Duplicate = f.dup && attempt >= 0
	}
	return d
}

// TestMovePlaneDrains holds the executor to the data plane's reference
// discipline: after a Move / MoveAdd / MoveReverse round, every payload
// and pooled segment the round took is back in the pool — on a perfect
// network, when the transport discards duplicate deliveries, and when a
// lane's receive is cancelled because its peer became unreachable.
func TestMovePlaneDrains(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  mpsim.Config
	}{
		{"perfect", mpsim.Config{}},
		{"duplicates", mpsim.Config{Fault: lateFaults{dup: true}, Reliable: true}},
		{"cancelled", mpsim.Config{Fault: lateFaults{cut: true}, Reliable: true}},
	} {
		const nprocs, global = 4, 256
		var pool *bufpool.Pool
		var failed atomic.Int64
		cfg := tc.cfg
		cfg.Machine = mpsim.SP2()
		cfg.Programs = []mpsim.ProgramSpec{{Name: "spmd", Procs: nprocs, Body: func(p *mpsim.Proc) {
			ctx := NewCtx(p, p.Comm())
			src := newTestObj(global, nprocs, 1, p.Rank())
			dst := newTestObj(global, nprocs, 1, p.Rank())
			src.fillDistinct(1000)
			// A strided source stages its runs in pooled segments.
			sched, err := ComputeSchedule(SingleProgram(p.Comm()),
				&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(seqIdx(5, 120, 2))), Ctx: ctx},
				&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(seqIdx(40, 120, 1))), Ctx: ctx},
				Cooperation)
			if err != nil {
				t.Errorf("%s: ComputeSchedule: %v", tc.name, err)
				return
			}
			p.SleepUntil(1)
			for _, move := range []func(src, dst DistObject) MoveResult{sched.Move, sched.MoveAdd, sched.MoveReverse} {
				r := move(src, dst)
				failed.Add(int64(len(r.FailedPeers)))
			}
			if p.Rank() == 0 {
				pool = p.BufPool()
			}
		}}}
		st := mpsim.Run(cfg)
		if lp, ls := pool.LivePayloads(), pool.LiveSegments(); lp != 0 || ls != 0 {
			t.Errorf("%s: data plane did not drain: %d payloads, %d segments live", tc.name, lp, ls)
		}
		var dups int64
		for _, rs := range st.PerRank {
			dups += rs.DupsDiscarded
		}
		if (tc.name == "duplicates") != (dups > 0) {
			t.Errorf("%s: transport discarded %d duplicates", tc.name, dups)
		}
		if (tc.name == "cancelled") != (failed.Load() > 0) {
			t.Errorf("%s: moves reported %d failed lanes", tc.name, failed.Load())
		}
	}
}

// TestDroppedSchedulesDrain builds, moves and drops cold cooperation
// schedules one after another, each with strided lanes, and never
// touches them again: no cache evicts them and nothing releases them,
// so every staging segment their moves took must go back to the pool
// with the payload that carried it.
func TestDroppedSchedulesDrain(t *testing.T) {
	const nprocs, global, schedules = 4, 512, 6
	var pool *bufpool.Pool
	mpsim.RunSPMD(mpsim.SP2(), nprocs, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(global, nprocs, 1, p.Rank())
		dst := newTestObj(global, nprocs, 1, p.Rank())
		src.fillDistinct(1000)
		for i := 0; i < schedules; i++ {
			sched, err := ComputeSchedule(SingleProgram(p.Comm()),
				&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(seqIdx(i, 100, 2+i%3))), Ctx: ctx},
				&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(seqIdx(200-i, 100, 1+i%2))), Ctx: ctx},
				Cooperation)
			if err != nil {
				t.Errorf("schedule %d: %v", i, err)
				return
			}
			if p.Rank() == 0 && len(sched.Sends) == 0 {
				t.Errorf("schedule %d has no lanes to stage", i)
			}
			sched.Move(src, dst)
			sched.MoveAdd(src, dst)
			sched.MoveReverse(src, dst)
		}
		if p.Rank() == 0 {
			pool = p.BufPool()
		}
	})
	if lp, ls := pool.LivePayloads(), pool.LiveSegments(); lp != 0 || ls != 0 {
		t.Errorf("dropped schedules left %d payloads and %d segments live", lp, ls)
	}
}

// TestMemOverlaps pins the guard that turns views off for an in-place
// move: storages sharing any byte overlap, whatever slice of the
// backing array each one is; adjacent, empty and nil ones do not.
func TestMemOverlaps(t *testing.T) {
	back := make([]float64, 16)
	f := func(lo, hi int) Mem { return Mem{et: Float64, f64: back[lo:hi]} }
	by := make([]byte, 8)
	b := func(words int, data []byte) Mem { return Mem{et: ElemType{Kind: KindByte, Words: words}, by: data} }
	for _, c := range []struct {
		name string
		a, b Mem
		want bool
	}{
		{"same storage", f(0, 16), f(0, 16), true},
		{"nested", f(0, 16), f(4, 6), true},
		{"one shared element", f(0, 9), f(8, 16), true},
		{"adjacent", f(0, 8), f(8, 16), false},
		{"empty inside", f(0, 16), f(4, 4), false},
		{"nil", f(0, 16), NilMem(ElemType{Kind: KindFloat64, Words: 1}), false},
		{"other kind, other array", f(0, 16), b(1, by), false},
		{"bytes, shared", b(1, by[:5]), b(2, by[4:]), true},
	} {
		if got := memOverlaps(c.a, c.b); got != c.want {
			t.Errorf("%s: memOverlaps = %v, want %v", c.name, got, c.want)
		}
		if got := memOverlaps(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): memOverlaps = %v, want %v", c.name, got, c.want)
		}
	}
}
