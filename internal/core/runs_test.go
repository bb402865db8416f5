package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// A run list is a function of its element sequence: the one-element
// appenders define it, and the bulk appenders leave the same list
// however the sequence is cut into runs.  Every row builds its lists
// three ways — one element at a time, through the bulk appenders over
// the segments as generated, and through them again over a second,
// unrelated cut of the same elements — and all three must be DeepEqual.
// Small values make progressions line up by accident as often as not.
func TestBulkAppendersMatchSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	small := func(n int) int32 { return int32(rng.Intn(n)) }
	for i := 0; i < 20000; i++ {
		var segs []LocalRun
		var prev LocalRun
		for n := 1 + rng.Intn(6); n > 0; n-- {
			seg := LocalRun{
				Src: small(10), SrcStride: small(4) - 1,
				Dst: small(10), DstStride: small(4) - 1,
				Count: 1 + small(7),
			}
			if rng.Intn(2) == 0 {
				// Pick up where the previous segment left off, with its
				// strides or not.
				seg.Src, seg.Dst = prev.Src+prev.Count*prev.SrcStride, prev.Dst+prev.Count*prev.DstStride
				if rng.Intn(2) == 0 {
					seg.SrcStride, seg.DstStride = prev.SrcStride, prev.DstStride
				}
			}
			prev = seg
			segs = append(segs, seg)
		}

		// The element sequence, as runs of one.
		var elems []LocalRun
		for _, seg := range segs {
			for k := int32(0); k < seg.Count; k++ {
				elems = append(elems, LocalRun{Src: seg.Src + k*seg.SrcStride, Dst: seg.Dst + k*seg.DstStride, Count: 1})
			}
		}
		// A second cut: from each element on, as much of the progression
		// it starts as a coin allows.
		var recut []LocalRun
		for a := 0; a < len(elems); {
			seg := elems[a]
			b := a + 1
			if b < len(elems) {
				seg.SrcStride, seg.DstStride = elems[b].Src-seg.Src, elems[b].Dst-seg.Dst
				for b < len(elems) && rng.Intn(4) > 0 &&
					elems[b].Src == seg.Src+seg.Count*seg.SrcStride && elems[b].Dst == seg.Dst+seg.Count*seg.DstStride {
					seg.Count++
					b++
				}
			}
			if seg.Count == 1 {
				seg.SrcStride, seg.DstStride = small(4)-1, small(4)-1 // ignored
			}
			recut = append(recut, seg)
			a = b
		}

		type lists struct {
			offs  []Run
			pairs []LocalRun
		}
		var singles lists
		for _, e := range elems {
			singles.offs = appendOffsetRun(singles.offs, e.Src)
			singles.pairs = appendLocalRun(singles.pairs, e.Src, e.Dst)
		}
		bulk := func(cut []LocalRun) (l lists) {
			for _, seg := range cut {
				l.offs = appendOffsetRuns(l.offs, seg.src())
				l.pairs = appendLocalRuns(l.pairs, seg)
			}
			return l
		}
		for _, c := range []struct {
			name string
			cut  []LocalRun
		}{{"as generated", segs}, {"recut", recut}} {
			if got := bulk(c.cut); !reflect.DeepEqual(got, singles) {
				t.Fatalf("iteration %d, segments %s:\nbulk       %+v\none by one %+v", i, c.name, got, singles)
			}
		}
	}
}
