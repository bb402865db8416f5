package core

import (
	"encoding/binary"

	"metachaos/internal/codec"
)

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

// pairStream walks one stream token by token, straight off its bytes.
// A token is a run, or a literal block handed over as its raw bytes (8
// a pair: a, then b), so consumers read literals in a plain loop with
// no call per pair.  What they build goes through the appenders
// (runs.go), so it depends on the pairs alone, not on how the encoder
// cut them.
type pairStream struct {
	b    []byte // from the next token on
	left int32  // pairs not yet walked
}

// openStream starts walking the stream at the front of b.
func openStream(b []byte) pairStream {
	return pairStream{b: b[4:], left: le32(b)}
}

// next returns the next token, while left > 0: a run with lits nil, or
// a literal block's bytes.
func (s *pairStream) next() (t LocalRun, lits []byte) {
	h := le32(s.b)
	if h < 0 {
		t = LocalRun{Count: -h, Src: le32(s.b[4:]), SrcStride: le32(s.b[8:]), Dst: le32(s.b[12:]), DstStride: le32(s.b[16:])}
		s.b, s.left = s.b[20:], s.left-t.Count
		return t, nil
	}
	end := 4 + 8*int(h)
	lits, s.b, s.left = s.b[4:end:end], s.b[end:], s.left-h
	return t, lits
}

// le32 reads the little-endian int32 at the front of b.
func le32(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }

// addStream appends the stream at the front of b, whose pairs are
// (peer, offset), to the lanes, and returns the bytes after it and its
// pair count.  A run whose peer moves is as many single offsets.
func (l *lanes) addStream(b []byte) ([]byte, int) {
	st := openStream(b)
	n := int(st.left)
	for st.left > 0 {
		t, lits := st.next()
		switch {
		case lits != nil:
			for ; len(lits) > 0; lits = lits[8:] {
				pl := l.lane(int(le32(lits)))
				pl.Runs = appendOffsetRun(pl.Runs, le32(lits[4:]))
			}
		case t.SrcStride == 0:
			pl := l.lane(int(t.Src))
			pl.Runs = appendOffsetRuns(pl.Runs, t.dst())
		default:
			for k := int32(0); k < t.Count; k++ {
				pl := l.lane(int(t.Src + k*t.SrcStride))
				pl.Runs = appendOffsetRun(pl.Runs, t.Dst+k*t.DstStride)
			}
		}
	}
	return st.b, n
}

// appendLocalStream appends the stream at the front of b, whose pairs
// are (source offset, destination offset), to runs, and returns the
// list, the bytes after the stream and its pair count.
func appendLocalStream(runs []LocalRun, b []byte) ([]LocalRun, []byte, int) {
	st := openStream(b)
	n := int(st.left)
	for st.left > 0 {
		t, lits := st.next()
		if lits == nil {
			runs = appendLocalRuns(runs, t)
			continue
		}
		for ; len(lits) > 0; lits = lits[8:] {
			runs = appendLocalRun(runs, le32(lits), le32(lits[4:]))
		}
	}
	return runs, st.b, n
}
