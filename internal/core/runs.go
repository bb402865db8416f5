package core

import (
	"fmt"
	"math"
)

// Arithmetic-run representation of schedule element lists.  The
// cooperation wire format (rle.go) already compresses offset lists into
// runs for transport; this file keeps that structure alive in memory:
// PeerList and the local-copy list store maximal (start, stride, count)
// progressions instead of expanded []int32 offsets, so a regular
// section transfer costs a handful of runs per peer no matter how many
// elements it moves, ScheduleCache entries stay small, and the executor
// (move.go) can pack and unpack whole runs with bulk copies.
//
// A list is a function of its element sequence alone: the one-element
// appenders define it, and the bulk appenders are their O(1) shortcut,
// so every builder that feeds the same sequence leaves the same list
// however it cut the sequence into runs.

// Run is an arithmetic progression of element offsets: Start,
// Start+Stride, ..., Count elements in total.  A singleton has Count 1
// and Stride 0.
type Run struct {
	Start  int32
	Stride int32
	Count  int32
}

// At returns the k-th offset of the run.
func (r Run) At(k int32) int32 { return r.Start + k*r.Stride }

// Last returns the final offset of the run.
func (r Run) Last() int32 { return r.Start + (r.Count-1)*r.Stride }

// appendOffsetRun extends runs with one more offset, coalescing
// arithmetic progressions online.  When a two-element run fails to
// extend, its second element is demoted into a fresh progression with
// the incoming offset, so a literal followed by a long run ("0, 10, 11,
// 12, ...") still compresses to two runs.
func appendOffsetRun(runs []Run, off int32) []Run {
	if n := len(runs); n > 0 {
		last := &runs[n-1]
		switch {
		case last.Count == 1:
			last.Stride = off - last.Start
			last.Count = 2
			return runs
		case off == last.Start+last.Stride*last.Count:
			last.Count++
			return runs
		case last.Count == 2:
			second := last.Start + last.Stride
			last.Stride, last.Count = 0, 1
			return append(runs, Run{Start: second, Stride: off - second, Count: 2})
		}
	}
	return append(runs, Run{Start: off, Count: 1})
}

// appendOffsetRuns appends every offset of r and leaves exactly the
// list r.Count calls of appendOffsetRun would, in O(1).  Whatever the
// list held, once three offsets of one progression have gone in one at
// a time its last run ends with them and has their stride, so the rest
// only lengthen it.
func appendOffsetRuns(runs []Run, r Run) []Run {
	k := int32(0)
	for ; k < r.Count && k < 3; k++ {
		runs = appendOffsetRun(runs, r.At(k))
	}
	if k < r.Count {
		runs[len(runs)-1].Count += r.Count - k
	}
	return runs
}

// runFacts are what a move needs of a run list beyond the data,
// recorded once at build (a schedule is immutable after): the element
// count, the count in runs of stride other than 1 (the ones a pack
// always stages) and the lowest and highest offset.
type runFacts struct {
	n, strided int
	lo, hi     int32
}

// noRuns is the facts of an empty list, whose extent fits any storage.
var noRuns = runFacts{lo: math.MaxInt32, hi: math.MinInt32}

// add records r.
func (f *runFacts) add(r Run) {
	f.n += int(r.Count)
	if r.Stride != 1 {
		f.strided += int(r.Count)
	}
	f.lo, f.hi = min(f.lo, r.Start, r.Last()), max(f.hi, r.Start, r.Last())
}

// check panics unless every offset lies inside local storage units
// scalar units long: otherwise the schedule is being executed on an
// object it was not built for.
func (f *runFacts) check(units, w int) {
	if f.lo < 0 || int(f.hi)*w+w > units {
		bad := f.lo
		if bad >= 0 {
			bad = f.hi
		}
		panic(fmt.Sprintf("core: schedule offset %d outside local storage of %d elements; wrong object passed to Move?", bad, units/max(w, 1)))
	}
}

// LocalRun is a run of same-process element copies: the k-th pair is
// (Src + k*SrcStride, Dst + k*DstStride).  It is also the run token of
// the pair streams in rle.go, whatever the two sides of a pair mean
// there.
type LocalRun struct {
	Src, Dst             int32
	SrcStride, DstStride int32
	Count                int32
}

// src and dst return the run's two sides as offset runs.
func (r LocalRun) src() Run { return Run{r.Src, r.SrcStride, r.Count} }
func (r LocalRun) dst() Run { return Run{r.Dst, r.DstStride, r.Count} }

// appendLocalRun extends runs with one more (src, dst) pair, with the
// same online coalescing as appendOffsetRun applied to both sides.
func appendLocalRun(runs []LocalRun, src, dst int32) []LocalRun {
	if n := len(runs); n > 0 {
		last := &runs[n-1]
		switch {
		case last.Count == 1:
			last.SrcStride = src - last.Src
			last.DstStride = dst - last.Dst
			last.Count = 2
			return runs
		case src == last.Src+last.SrcStride*last.Count && dst == last.Dst+last.DstStride*last.Count:
			last.Count++
			return runs
		case last.Count == 2:
			s2, d2 := last.Src+last.SrcStride, last.Dst+last.DstStride
			last.SrcStride, last.DstStride, last.Count = 0, 0, 1
			return append(runs, LocalRun{Src: s2, Dst: d2, SrcStride: src - s2, DstStride: dst - d2, Count: 2})
		}
	}
	return append(runs, LocalRun{Src: src, Dst: dst, Count: 1})
}

// appendLocalRuns is appendOffsetRuns for (src, dst) pairs: the list
// r.Count calls of appendLocalRun would leave, in O(1).
func appendLocalRuns(runs []LocalRun, r LocalRun) []LocalRun {
	k := int32(0)
	for ; k < r.Count && k < 3; k++ {
		runs = appendLocalRun(runs, r.Src+k*r.SrcStride, r.Dst+k*r.DstStride)
	}
	if k < r.Count {
		runs[len(runs)-1].Count += r.Count - k
	}
	return runs
}

// routeRun is one stretch of a join: Count consecutive positions come
// from program rank SrcRank at offsets SrcOff, SrcOff+SrcStride, ...
// and land on program rank DstRank at offsets DstOff, DstOff+DstStride,
// ....
type routeRun struct {
	Count int32

	SrcRank int32
	DstRank int32

	SrcOff    int32
	SrcStride int32
	DstOff    int32
	DstStride int32
}

// offs returns the run's (source offset, destination offset) pairs.
func (r *routeRun) offs() LocalRun {
	return LocalRun{Src: r.SrcOff, Dst: r.DstOff, SrcStride: r.SrcStride, DstStride: r.DstStride, Count: r.Count}
}

// runCursor reads one inquiry answer in position order while the
// caller walks the other side's answer over the same positions — the
// join of a transfer's source and destination locations.
type runCursor struct {
	runs []LocRun
	i    int   // the run being read
	k    int32 // how much of it is used up
}

// cut takes from the front of s, a source-side run, the stretch that
// also lies inside the cursor's current destination-side run, describes
// it in seg (ranks are the answers' program ranks) and moves both s and
// the cursor past it.  Answers that do not cover the same positions
// break the Library contract and panic.
func (c *runCursor) cut(s *LocRun, seg *routeRun) {
	if c.i == len(c.runs) || c.runs[c.i].Pos+c.k != s.Pos {
		c.mismatch(s.Pos)
	}
	d := &c.runs[c.i]
	n := d.Count - c.k
	if s.Count < n {
		n = s.Count
	}
	*seg = routeRun{
		Count:   n,
		SrcRank: s.Proc, SrcOff: s.Off, SrcStride: s.Stride,
		DstRank: d.Proc, DstOff: d.Off + c.k*d.Stride, DstStride: d.Stride,
	}
	s.Pos, s.Off, s.Count = s.Pos+n, s.Off+n*s.Stride, s.Count-n
	if c.k += n; c.k == d.Count {
		c.i, c.k = c.i+1, 0
	}
}

// cutOne is cut for a source-side stretch of the one position pos: it
// returns the destination side's program rank and offset there.
func (c *runCursor) cutOne(pos int32) (proc, off int32) {
	if c.i == len(c.runs) || c.runs[c.i].Pos+c.k != pos {
		c.mismatch(pos)
	}
	d := &c.runs[c.i]
	proc, off = d.Proc, d.Off+c.k*d.Stride
	if c.k++; c.k == d.Count {
		c.i, c.k = c.i+1, 0
	}
	return proc, off
}

// mismatch panics because the source side's next position, pos, is not
// where the cursor stands.
func (c *runCursor) mismatch(pos int32) {
	if c.i == len(c.runs) {
		panic(fmt.Sprintf("core: inquiry answers cover different positions: the destination side ends before %d", pos))
	}
	panic(fmt.Sprintf("core: inquiry answers cover different positions: %d on the source side, %d on the destination side", pos, c.runs[c.i].Pos+c.k))
}

// done checks that the walk used the cursor's answer up.
func (c *runCursor) done() {
	if c.i != len(c.runs) {
		panic(fmt.Sprintf("core: inquiry answers cover different positions: the source side ends before %d", c.runs[c.i].Pos+c.k))
	}
}

// appendRanges appends the position intervals runs cover, adjacent
// runs merged.
func appendRanges(out []PosRange, runs []LocRun) []PosRange {
	for _, r := range runs {
		if n := len(out); n > 0 && out[n-1].Hi == r.Pos {
			out[n-1].Hi = r.End()
		} else {
			out = append(out, PosRange{Lo: r.Pos, Hi: r.End()})
		}
	}
	return out
}
