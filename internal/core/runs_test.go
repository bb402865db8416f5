package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// The whole-run appenders promise the list their one-element forms
// would leave, whatever came before.  Small values make progressions
// line up by accident as often as not.
func TestWholeRunAppendersMatchElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	small := func(n int) int32 { return int32(rng.Intn(n)) }
	for i := 0; i < 20000; i++ {
		var offsWhole, offsElem []Run
		var locWhole, locElem []LocalRun
		var routeWhole, routeElem []RouteRun
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

			offsWhole = appendOffsetRuns(offsWhole, seg.SrcOff, seg.SrcStride, seg.Count)
			locWhole = appendLocalRuns(locWhole, seg.SrcOff, seg.SrcStride, seg.DstOff, seg.DstStride, seg.Count)
			routeWhole = appendRouteRuns(routeWhole, &seg)
			for k := int32(0); k < seg.Count; k++ {
				offsElem = appendOffsetRun(offsElem, seg.srcAt(k))
				locElem = appendLocalRun(locElem, seg.srcAt(k), seg.dstAt(k))
				routeElem = appendRouteRun(routeElem, seg.Pos+k, seg.SrcRank, seg.srcAt(k), seg.DstRank, seg.dstAt(k))
			}
		}
		if !reflect.DeepEqual(offsWhole, offsElem) {
			t.Fatalf("iteration %d: offsets: whole runs %v, one by one %v", i, offsWhole, offsElem)
		}
		if !reflect.DeepEqual(locWhole, locElem) {
			t.Fatalf("iteration %d: local pairs: whole runs %v, one by one %v", i, locWhole, locElem)
		}
		if !reflect.DeepEqual(routeWhole, routeElem) {
			t.Fatalf("iteration %d: routes: whole runs %v, one by one %v", i, routeWhole, routeElem)
		}
	}
}
