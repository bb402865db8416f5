package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// A run list is a function of its element sequence: the one-element
// appenders define it, and the bulk appenders leave the same list
// however the sequence is cut into runs.  Every row builds its list
// three ways — one element at a time, through the bulk appender over
// the segments as generated, and through it again over a second,
// unrelated cut of the same elements — and all three must be DeepEqual.
// Small values make progressions line up by accident as often as not.
func TestBulkAppendersMatchSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	small := func(n int) int32 { return int32(rng.Intn(n)) }
	for i := 0; i < 20000; i++ {
		var segs []RouteRun
		pos := int32(0)
		var prev RouteRun
		for n := 1 + rng.Intn(6); n > 0; n-- {
			seg := RouteRun{
				Pos: pos, Count: 1 + small(7),
				SrcRank: small(2), DstRank: small(2),
				SrcOff: small(10), SrcStride: small(4) - 1,
				DstOff: small(10), DstStride: small(4) - 1,
			}
			if rng.Intn(2) == 0 {
				// Pick up where the previous segment left off, with its
				// strides or not.
				seg.SrcOff, seg.DstOff = prev.srcAt(prev.Count), prev.dstAt(prev.Count)
				seg.SrcRank, seg.DstRank = prev.SrcRank, prev.DstRank
				if rng.Intn(2) == 0 {
					seg.SrcStride, seg.DstStride = prev.SrcStride, prev.DstStride
				}
			}
			pos += seg.Count + small(2) // sometimes a gap in positions
			prev = seg
			segs = append(segs, seg)
		}

		// The element sequence, as runs of one.
		var elems []RouteRun
		for _, seg := range segs {
			for k := int32(0); k < seg.Count; k++ {
				elems = append(elems, RouteRun{
					Pos: seg.Pos + k, Count: 1,
					SrcRank: seg.SrcRank, SrcOff: seg.srcAt(k),
					DstRank: seg.DstRank, DstOff: seg.dstAt(k),
				})
			}
		}
		// A second cut: from each element on, as much of the progression
		// it starts as a coin allows.
		var recut []RouteRun
		for a := 0; a < len(elems); {
			seg := elems[a]
			b := a + 1
			if b < len(elems) && elems[b].Pos == seg.Pos+1 && elems[b].SrcRank == seg.SrcRank && elems[b].DstRank == seg.DstRank {
				seg.SrcStride, seg.DstStride = elems[b].SrcOff-seg.SrcOff, elems[b].DstOff-seg.DstOff
				for b < len(elems) && rng.Intn(4) > 0 && elems[b].Pos == seg.Pos+seg.Count &&
					elems[b].SrcRank == seg.SrcRank && elems[b].DstRank == seg.DstRank &&
					elems[b].SrcOff == seg.srcAt(seg.Count) && elems[b].DstOff == seg.dstAt(seg.Count) {
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

		// locs is the source side as an inquiry answer.  It has no bulk
		// appender of its own: the bulk form is the route list with an
		// inert destination (rank 0, offset = position), which must
		// coalesce by the same rule.
		type lists struct {
			offs   []Run
			pairs  []LocalRun
			routes []RouteRun
			locs   []LocRun
		}
		var singles lists
		for _, e := range elems {
			singles.offs = appendOffsetRun(singles.offs, e.SrcOff)
			singles.pairs = appendLocalRun(singles.pairs, e.SrcOff, e.DstOff)
			singles.routes = appendRouteRun(singles.routes, e.Pos, e.SrcRank, e.SrcOff, e.DstRank, e.DstOff)
			singles.locs = AppendLoc(singles.locs, e.Pos, e.SrcRank, e.SrcOff)
		}
		bulk := func(cut []RouteRun) (l lists) {
			var srcRoutes []RouteRun
			for _, seg := range cut {
				l.offs = appendOffsetRuns(l.offs, seg.offs().src())
				l.pairs = appendLocalRuns(l.pairs, seg.offs())
				l.routes = appendRouteRuns(l.routes, &seg)
				seg.DstRank, seg.DstOff, seg.DstStride = 0, seg.Pos, 1
				srcRoutes = appendRouteRuns(srcRoutes, &seg)
			}
			for _, r := range srcRoutes {
				l.locs = append(l.locs, LocRun{Pos: r.Pos, Proc: r.SrcRank, Off: r.SrcOff, Stride: r.SrcStride, Count: r.Count})
			}
			return l
		}
		for _, c := range []struct {
			name string
			cut  []RouteRun
		}{{"as generated", segs}, {"recut", recut}} {
			if got := bulk(c.cut); !reflect.DeepEqual(got, singles) {
				t.Fatalf("iteration %d, segments %s:\nbulk       %+v\none by one %+v", i, c.name, got, singles)
			}
		}
	}
}
