package core

import "metachaos/internal/codec"

// Run-length encoding for schedule wire formats.  The cooperation
// method ships location and offset lists between processes; for
// regular array sections these lists are long arithmetic progressions
// (consecutive offsets with a fixed stride), so encoding maximal runs
// keeps the schedule messages small — the reason the paper's
// cooperation build on two regular meshes costs milliseconds, not a
// data-sized transfer.  Irregular lists fall back to literal blocks.
//
// Token stream: an int32 pair count, then an int32 header per token.
// header > 0: a literal block of that many pairs follows (2 int32
// each).  header < 0: an arithmetic run of -header pairs follows as
// (a0, da, b0, db).
//
// The stream is a function of the pair sequence alone: scanning left
// to right, the longest progression starting at the current pair
// becomes a run token if it has at least minRun pairs, and otherwise
// its first pair becomes a literal and the scan resumes at the next.
// Message sizes are virtual time, so pairEncoder reproduces exactly
// that stream however its input is cut into runs.

// minRun is the shortest progression worth a run token (a run costs 5
// words; literals cost 2 per pair).
const minRun = 4

// pairEncoder writes one stream onto w.  Its state is the scan's
// current candidate progression — n pairs starting at (a0, b0) with
// steps (da, db), none of them written yet — plus the literal block
// being filled.
type pairEncoder struct {
	w       codec.Writer
	totalAt int // where the pair count goes
	total   int32
	litAt   int // where the open literal block's header goes, or -1
	lits    int32

	a0, b0, da, db, n int32
}

// reset empties the encoder for a new stream, keeping w's buffer.
func (e *pairEncoder) reset() {
	e.w.Reset()
	*e = pairEncoder{w: e.w}
}

// begin starts the stream, after whatever w already holds.
func (e *pairEncoder) begin() {
	e.totalAt, e.litAt = e.w.Len(), -1
	e.w.PutInt32(0)
}

// put feeds one pair.
func (e *pairEncoder) put(a, b int32) {
	e.total++
	switch {
	case e.n == 0:
		e.a0, e.b0, e.n = a, b, 1
	case e.n == 1:
		e.da, e.db, e.n = a-e.a0, b-e.b0, 2
	case a == e.a0+e.n*e.da && b == e.b0+e.n*e.db:
		e.n++
	case e.n >= minRun:
		e.writeRun()
		e.a0, e.b0, e.n = a, b, 1
	default:
		// A candidate of two or three pairs is too short wherever the
		// scan restarts inside it, so all but its last pair are literals,
		// and the last opens the next candidate together with (a, b).
		for k := int32(0); k < e.n-1; k++ {
			e.writeLit(e.a0+k*e.da, e.b0+k*e.db)
		}
		la, lb := e.a0+(e.n-1)*e.da, e.b0+(e.n-1)*e.db
		e.a0, e.b0, e.da, e.db, e.n = la, lb, a-la, b-lb, 2
	}
}

// putRun feeds the pairs of r.  Whatever came before, once three pairs
// of one progression have gone through put the candidate ends with them
// and has their steps, so the rest only lengthen it.
func (e *pairEncoder) putRun(r LocalRun) {
	k := int32(0)
	for ; k < r.Count && k < 3; k++ {
		e.put(r.Src+k*r.SrcStride, r.Dst+k*r.DstStride)
	}
	e.n += r.Count - k
	e.total += r.Count - k
}

func (e *pairEncoder) writeLit(a, b int32) {
	if e.litAt < 0 {
		e.litAt = e.w.Len()
		e.w.PutInt32(0)
	}
	e.w.PutInt32(a)
	e.w.PutInt32(b)
	e.lits++
}

func (e *pairEncoder) closeLits() {
	if e.litAt >= 0 {
		e.w.SetInt32(e.litAt, e.lits)
		e.litAt, e.lits = -1, 0
	}
}

func (e *pairEncoder) writeRun() {
	e.closeLits()
	e.w.PutInt32(-e.n)
	e.w.PutInt32(e.a0)
	e.w.PutInt32(e.da)
	e.w.PutInt32(e.b0)
	e.w.PutInt32(e.db)
}

// finish ends the stream and returns w's bytes.
func (e *pairEncoder) finish() []byte {
	if e.n >= minRun {
		e.writeRun()
	} else {
		for k := int32(0); k < e.n; k++ {
			e.writeLit(e.a0+k*e.da, e.b0+k*e.db)
		}
		e.closeLits()
	}
	e.w.SetInt32(e.totalAt, e.total)
	return e.w.Bytes()
}

// decodePairsRuns reads one stream, calling run once per token — a
// literal pair is a run of one — and returns the stream's pair count.
// Consumers append through the bulk appenders (runs.go), so what they
// build depends on the pairs alone, not on how the encoder cut them.
func decodePairsRuns(r *codec.Reader, run func(LocalRun)) int {
	total := r.Int32()
	for seen := int32(0); seen < total; {
		h := r.Int32()
		if h < 0 {
			t := LocalRun{Count: -h}
			t.Src, t.SrcStride = r.Int32(), r.Int32()
			t.Dst, t.DstStride = r.Int32(), r.Int32()
			run(t)
			seen += t.Count
			continue
		}
		for k := int32(0); k < h; k++ {
			run(LocalRun{Src: r.Int32(), Dst: r.Int32(), Count: 1})
		}
		seen += h
	}
	return int(total)
}

// decodeKeyedRuns reads a stream whose pairs are (key, offset) — a
// process or peer rank and an offset there — calling run for every
// stretch of offsets under one key and returning the pair count.  A
// token whose key moves is as many stretches of one.
func decodeKeyedRuns(r *codec.Reader, run func(key int, offs Run)) int {
	return decodePairsRuns(r, func(t LocalRun) {
		if t.SrcStride == 0 {
			run(int(t.Src), t.dst())
			return
		}
		for k := int32(0); k < t.Count; k++ {
			run(int(t.Src+k*t.SrcStride), Run{Start: t.Dst + k*t.DstStride, Count: 1})
		}
	})
}
