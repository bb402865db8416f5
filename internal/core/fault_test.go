package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"metachaos/internal/bufpool"
	"metachaos/internal/codec"
	"metachaos/internal/mpsim"
)

// coreInjector is a deterministic rate-based injector for core-level
// fault tests (mirrors the faultsim presets without the import).
type coreInjector struct {
	seed                      uint64
	drop, dup, corrupt, delay float64
	jitter                    float64
	calls                     uint64
	killFrom, killTo          int  // cut link while killed is set; -1 disables
	killed                    bool // armed by the test body (single-threaded scheduler)
}

func (s *coreInjector) roll(salt uint64) float64 {
	z := s.seed ^ s.calls*0x9e3779b97f4a7c15 ^ salt*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

func (s *coreInjector) Decide(from, to, attempt, bytes int, now float64) mpsim.FaultDecision {
	s.calls++
	d := mpsim.FaultDecision{CorruptBit: -1}
	if s.killed && ((from == s.killFrom && to == s.killTo) || (from == s.killTo && to == s.killFrom)) {
		d.Drop = true
		return d
	}
	if s.roll(1) < s.drop {
		d.Drop = true
		return d
	}
	if attempt >= 0 {
		d.Duplicate = s.roll(2) < s.dup
		if bytes > 0 && s.roll(3) < s.corrupt {
			d.CorruptBit = int(uint(s.seed+s.calls) % uint(bytes*8))
		}
	}
	if s.roll(4) < s.delay {
		d.ExtraDelay = s.jitter * s.roll(5)
	}
	return d
}

// faultyRun runs body with the reliable transport over a lossy network.
func faultyRun(nprocs int, seed uint64, body func(p *mpsim.Proc)) *mpsim.Stats {
	return mpsim.Run(mpsim.Config{
		Machine:  mpsim.SP2(),
		Fault:    &coreInjector{seed: seed, drop: 0.06, dup: 0.03, corrupt: 0.02, delay: 0.2, jitter: 2e-3, killFrom: -1, killTo: -1},
		Reliable: true,
		Programs: []mpsim.ProgramSpec{{Name: "spmd", Procs: nprocs, Body: body}},
	})
}

// A move over a faulty reliable network must produce exactly the data
// a fault-free move produces, and report the recovery effort.
func TestMoveUnderFaultsBitIdentical(t *testing.T) {
	const nprocs, global = 4, 120
	srcIdx := seqIdx(4, 50, 2)
	dstIdx := seqIdx(60, 50, 1)

	runOnce := func(faulty bool) ([]float64, MoveResult, *mpsim.Stats) {
		var dstAll []float64
		var res MoveResult
		body := func(p *mpsim.Proc) {
			ctx := NewCtx(p, p.Comm())
			src := newTestObj(global, nprocs, 2, p.Rank())
			dst := newTestObj(global, nprocs, 2, p.Rank())
			src.fillDistinct(1000)
			sched, err := ComputeSchedule(SingleProgram(p.Comm()),
				&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(regions(srcIdx, 3)...), Ctx: ctx},
				&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(regions(dstIdx, 2)...), Ctx: ctx},
				Cooperation)
			if err != nil {
				t.Errorf("ComputeSchedule: %v", err)
				return
			}
			r := sched.Move(src, dst)
			if p.Rank() == 0 {
				res = r
			}
			all := gatherObj(p.Comm(), dst)
			if p.Rank() == 0 {
				dstAll = all
			}
		}
		var st *mpsim.Stats
		if faulty {
			st = faultyRun(nprocs, 20260806, body)
		} else {
			st = mpsim.RunSPMD(mpsim.SP2(), nprocs, body)
		}
		return dstAll, res, st
	}

	clean, cleanRes, _ := runOnce(false)
	faulted, faultRes, faultSt := runOnce(true)
	if len(clean) == 0 || len(clean) != len(faulted) {
		t.Fatalf("gather sizes: clean %d, faulted %d", len(clean), len(faulted))
	}
	for i := range clean {
		if clean[i] != faulted[i] {
			t.Fatalf("word %d differs under faults: %g vs %g", i, clean[i], faulted[i])
		}
	}
	if !cleanRes.OK() {
		t.Errorf("clean run degraded: failed peers %v", cleanRes.FailedPeers)
	}
	if !faultRes.OK() {
		t.Errorf("faulty run degraded unexpectedly: failed peers %v", faultRes.FailedPeers)
	}
	if faultSt.TotalRetransmits() == 0 {
		t.Error("faulty reliable run recovered nothing: no retransmits")
	}
}

// A schedule reused across many moves under faults must keep producing
// correct data (sequence spaces, cached buffers and counters all
// advance move by move).
func TestScheduleReuseUnderFaults(t *testing.T) {
	const nprocs, global, iters = 4, 80, 6
	srcIdx := seqIdx(0, 40, 2)
	dstIdx := seqIdx(1, 40, 2)
	st := faultyRun(nprocs, 77, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(global, nprocs, 1, p.Rank())
		dst := newTestObj(global, nprocs, 1, p.Rank())
		sched, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(regions(srcIdx, 2)...), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(regions(dstIdx, 2)...), Ctx: ctx},
			Duplication)
		if err != nil {
			t.Errorf("ComputeSchedule: %v", err)
			return
		}
		for it := 0; it < iters; it++ {
			src.fillDistinct(float64(1000 * (it + 1)))
			if r := sched.Move(src, dst); !r.OK() {
				t.Errorf("iter %d: move degraded: %v", it, r.FailedPeers)
				return
			}
			srcAll := gatherObj(p.Comm(), src)
			dstAll := gatherObj(p.Comm(), dst)
			if p.Rank() == 0 {
				checkCopy(t, srcAll, dstAll, 1, srcIdx, dstIdx)
			}
		}
	})
	if st.TotalDrops() == 0 {
		t.Error("fault injection idle; test exercised nothing")
	}
}

// MoveAdd's accumulate semantics must also survive faults (a
// retransmitted or duplicated message must still be applied exactly
// once — double-adds would corrupt sums silently).
func TestMoveAddUnderFaultsExactlyOnce(t *testing.T) {
	const nprocs, global = 3, 60
	srcIdx := seqIdx(0, 30, 2)
	dstIdx := seqIdx(30, 30, 1)
	faultyRun(nprocs, 4242, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(global, nprocs, 1, p.Rank())
		dst := newTestObj(global, nprocs, 1, p.Rank())
		src.fillDistinct(100)
		for i := range dst.data {
			dst.data[i] = 0.5
		}
		sched, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(srcIdx)), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(dstIdx)), Ctx: ctx},
			Cooperation)
		if err != nil {
			t.Errorf("ComputeSchedule: %v", err)
			return
		}
		sched.MoveAdd(src, dst)
		srcAll := gatherObj(p.Comm(), src)
		dstAll := gatherObj(p.Comm(), dst)
		if p.Rank() == 0 {
			for k := range srcIdx {
				want := 0.5 + srcAll[srcIdx[k]]
				if got := dstAll[dstIdx[k]]; got != want {
					t.Errorf("element %d: %g, want %g (exactly-once violated)", dstIdx[k], got, want)
					return
				}
			}
		}
	})
}

// When a peer is permanently unreachable, a move with a timeout must
// degrade gracefully: surviving lanes complete, the dead peer is
// reported, and the run terminates instead of deadlocking.
func TestMoveGracefulDegradation(t *testing.T) {
	const nprocs, global = 3, 60
	// Interleave the mapping so rank 2's destination block receives
	// half its elements from rank 0 and half from rank 1: cutting the
	// 0 -> 2 link then kills one lane while the other survives.
	srcIdx := seqIdx(0, 40, 1)
	dstIdx := make([]int32, 40)
	for k := range dstIdx {
		if k%2 == 0 {
			dstIdx[k] = int32(40 + k/2) // rank 2 <- src 0,2,...,38 (ranks 0 and 1)
		} else {
			dstIdx[k] = int32(20 + k/2) // rank 1 <- src 1,3,...,39
		}
	}
	var deadReport []int
	var okElems int
	// Kill the 0 -> 2 link, but only after the schedule exchange: the
	// body arms the cut once the schedule is built.
	inj := &coreInjector{seed: 5, killFrom: 0, killTo: 2}
	mpsim.Run(mpsim.Config{
		Machine:  mpsim.SP2(),
		Fault:    inj,
		Reliable: true,
		Programs: []mpsim.ProgramSpec{{Name: "spmd", Procs: nprocs, Body: func(p *mpsim.Proc) {
			ctx := NewCtx(p, p.Comm())
			src := newTestObj(global, nprocs, 1, p.Rank())
			dst := newTestObj(global, nprocs, 1, p.Rank())
			src.fillDistinct(7)
			sched, err := ComputeSchedule(SingleProgram(p.Comm()),
				&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(srcIdx)), Ctx: ctx},
				&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(dstIdx)), Ctx: ctx},
				Duplication)
			if err != nil {
				t.Errorf("ComputeSchedule: %v", err)
				return
			}
			// Schedule exchange done everywhere; now cut the link.
			// The barrier serializes: no move traffic has been
			// decided yet when the flag flips.
			p.Comm().Barrier()
			inj.killed = true
			r := sched.Move(src, dst)
			if p.Rank() == 2 {
				deadReport = append([]int(nil), r.FailedPeers...)
				okElems = r.Elems
			}
		}}},
	})
	if len(deadReport) != 1 || deadReport[0] != 0 {
		t.Errorf("rank 2 failed peers = %v, want [0]", deadReport)
	}
	if okElems == 0 {
		t.Error("rank 2 completed no lanes; survivors should still deliver")
	}
}

// The cooperation method's schedule exchange — broadcasts, all-to-alls
// and dereference traffic — must complete over the reliable transport
// on a lossy network and yield a schedule that moves correct data.
func TestComputeScheduleReliable(t *testing.T) {
	const nprocs, global = 4, 100
	srcIdx := seqIdx(10, 40, 2)
	dstIdx := seqIdx(3, 40, 1)
	st := faultyRun(nprocs, 99, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(global, nprocs, 1, p.Rank())
		dst := newTestObj(global, nprocs, 1, p.Rank())
		src.fillDistinct(1000)
		sched, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(regions(srcIdx, 3)...), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(regions(dstIdx, 2)...), Ctx: ctx},
			Cooperation)
		if err != nil {
			t.Errorf("ComputeSchedule: %v", err)
			return
		}
		if r := sched.Move(src, dst); !r.OK() {
			t.Errorf("move degraded: %v", r.FailedPeers)
			return
		}
		srcAll := gatherObj(p.Comm(), src)
		dstAll := gatherObj(p.Comm(), dst)
		if p.Rank() == 0 {
			checkCopy(t, srcAll, dstAll, 1, srcIdx, dstIdx)
		}
	})
	if st.TotalDrops() == 0 {
		t.Error("fault injection idle during schedule exchange")
	}
}

// The segment-list checksum helpers must agree with FNV-1a over the
// concatenated bytes however those bytes are split — a trailer
// straddling two segments included — and must tell a flipped bit.
func TestChecksumTrailer(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := fnv.New64a()
	h.Write(payload)
	want := h.Sum64()
	framed := binary.LittleEndian.AppendUint64(append([]byte(nil), payload...), want)
	if len(framed) != len(payload)+8 {
		t.Fatalf("trailer size: %d", len(framed)-len(payload))
	}
	for i := 0; i <= len(framed); i++ {
		for j := i; j <= len(framed); j++ {
			segs := [][]byte{framed[:i], framed[i:j], framed[j:]}
			if got := fnvOver(segs, len(payload)); got != want {
				t.Fatalf("fnvOver split at %d,%d = %x, want %x", i, j, got, want)
			}
			if got := trailerOf(segs); got != want {
				t.Fatalf("trailerOf split at %d,%d = %x, want %x", i, j, got, want)
			}
		}
	}
	framed[3] ^= 0x10
	for i := 0; i <= len(framed); i++ {
		segs := [][]byte{framed[:i], framed[i:]}
		if fnvOver(segs, len(payload)) == trailerOf(segs) {
			t.Fatalf("corrupted payload split at %d passed verification", i)
		}
	}
}

// laneWorld runs a two-rank world whose schedule is one lane, rank 0's
// block to rank 1's.  Instead of executing its half of the move, rank 0
// hands the lane's wire bytes (with the checksum trailer when framed)
// to forge, which ships them by hand on the move's tag; rank 1 runs the
// real Move and, if that returns, reports what landed in its block.
func laneWorld(t *testing.T, cfg mpsim.Config, framed bool, forge func(p *mpsim.Proc, wire []byte) *bufpool.Payload) (sent, got []float64) {
	t.Helper()
	const global, nprocs = 16, 2
	idx := seqIdx(0, global/nprocs, 1)
	cfg.Machine = mpsim.SP2()
	cfg.Programs = []mpsim.ProgramSpec{{Name: "spmd", Procs: nprocs, Body: func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(global, nprocs, 1, p.Rank())
		dst := newTestObj(global, nprocs, 1, p.Rank())
		src.fillDistinct(1000)
		dstIdx := seqIdx(global/nprocs, global/nprocs, 1)
		sched, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(idx)), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(dstIdx)), Ctx: ctx},
			Cooperation)
		if err != nil {
			t.Errorf("ComputeSchedule: %v", err)
			return
		}
		p.SleepUntil(1) // forgeries and injected faults start here, past the schedule exchange
		if p.Rank() == 1 {
			sched.Move(src, dst)
			got = dst.data
			return
		}
		sent = src.data
		wire := codec.Float64sToBytes(src.data)
		if framed {
			wire = binary.LittleEndian.AppendUint64(wire, fnvOver([][]byte{wire}, len(wire)))
		}
		pay := forge(p, wire)
		sched.union.SendPayload(sched.Sends[0].Peer, moveTag(sched.moveSeq), pay)
		pay.Release()
	}}}
	mpsim.Run(cfg)
	return sent, got
}

// A lane whose bytes do not match their trailer got past the transport
// (whose own checksum was taken over the already-bad bytes): the
// executor must halt the run rather than unpack it.
func TestMoveChecksumMismatchPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "end-to-end checksum mismatch") {
			t.Errorf("move of a lane with a flipped bit: recovered %v, want an end-to-end checksum panic", r)
		}
	}()
	laneWorld(t, mpsim.Config{Reliable: true}, true, func(p *mpsim.Proc, wire []byte) *bufpool.Payload {
		wire[3] ^= 0x10
		return p.BufPool().OwnPayload(wire)
	})
}

// flipBit corrupts one bit of every data transmission from virtual
// second 1 on; stateless, so shards may consult it concurrently.
type flipBit struct{ bit int }

func (f flipBit) Decide(from, to, attempt, bytes int, now float64) mpsim.FaultDecision {
	d := mpsim.FaultDecision{CorruptBit: -1}
	if now >= 1 && attempt >= 0 && bytes > 0 {
		d.CorruptBit = f.bit
	}
	return d
}

// On a raw (unreliable) faulted network nothing checks the bytes: a
// corrupted delivery reaches the executor as a payload like any other
// — the network's private copy with its bit flipped — and unpacks
// through unpackLane, landing exactly that one bit wrong.
func TestMoveRawCorruptedDelivery(t *testing.T) {
	const bit = 8*8*3 + 5 // element 3, bit 5
	sent, got := laneWorld(t, mpsim.Config{Fault: flipBit{bit}}, false, func(p *mpsim.Proc, wire []byte) *bufpool.Payload {
		// Two segments, so the delivered copy is seen to be re-segmented.
		pay := p.BufPool().GetPayload()
		pay.AddView(wire[:24])
		pay.AddView(wire[24:])
		return pay
	})
	if len(got) != len(sent) || len(got) == 0 {
		t.Fatalf("moved %d elements, sent %d", len(got), len(sent))
	}
	for i := range got {
		diff := math.Float64bits(got[i]) ^ math.Float64bits(sent[i])
		want := uint64(0)
		if i == bit/64 {
			want = 1 << (bit % 64)
		}
		if diff != want {
			t.Errorf("element %d: bits differ by %#x, want %#x", i, diff, want)
		}
	}
}
