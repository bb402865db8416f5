package core

import "fmt"

// Route maps: a position-indexed, run-compressed description of one
// transfer's element routing — for every linearization position, which
// (source rank, source offset) feeds which (destination rank,
// destination offset).  A RouteMap is what a Schedule looks like
// *before* it is specialized to one process: every rank holding the
// same route map can assemble its own send/receive/local lists from it
// locally, with no communication.  That is the foundation of
// incremental schedule repair (repair.go): when a redistribution moves
// a small delta of the elements, diffing the old and new route maps
// bounds the change, and patching a cached schedule is a local
// reassembly instead of a collective O(world) recompute.
//
// Ranks in a RouteMap are *world* ranks, not union ranks.  Union ranks
// are renumbered by every shrink (the union communicator is
// sorted by world rank), so a route map keyed on union ranks would rot
// at each membership change; world ranks are stable for the life of
// the simulated world, and assembly translates them through the
// current union's RankOf at the last moment.

// RouteRun is one run of consecutively routed positions: positions
// [Pos, Pos+Count) come from SrcRank at offsets SrcOff, SrcOff+
// SrcStride, ... and land on DstRank at offsets DstOff, DstOff+
// DstStride, ....  Ranks are world ranks.
type RouteRun struct {
	Pos   int32
	Count int32

	SrcRank int32
	DstRank int32

	SrcOff    int32
	SrcStride int32
	DstOff    int32
	DstStride int32
}

// srcAt returns the source offset of the k-th position of the run.
func (r *RouteRun) srcAt(k int32) int32 { return r.SrcOff + k*r.SrcStride }

// dstAt returns the destination offset of the k-th position of the run.
func (r *RouteRun) dstAt(k int32) int32 { return r.DstOff + k*r.DstStride }

// offs returns the run's (source offset, destination offset) pairs.
func (r *RouteRun) offs() LocalRun {
	return LocalRun{Src: r.SrcOff, Dst: r.DstOff, SrcStride: r.SrcStride, DstStride: r.DstStride, Count: r.Count}
}

// RouteMap is a transfer's complete routing: runs sorted by position,
// disjoint, covering [0, Elems).
type RouteMap struct {
	Elems int
	Runs  []RouteRun
}

// appendRouteRun extends runs with one position's routing, fusing it
// into the tail run when ranks match and both offset progressions line
// up.
func appendRouteRun(runs []RouteRun, pos, srcRank, srcOff, dstRank, dstOff int32) []RouteRun {
	if n := len(runs); n > 0 {
		last := &runs[n-1]
		if last.SrcRank == srcRank && last.DstRank == dstRank && pos == last.Pos+last.Count {
			switch {
			case last.Count == 1:
				last.SrcStride = srcOff - last.SrcOff
				last.DstStride = dstOff - last.DstOff
				last.Count = 2
				return runs
			case srcOff == last.srcAt(last.Count) && dstOff == last.dstAt(last.Count):
				last.Count++
				return runs
			}
		}
	}
	return append(runs, RouteRun{Pos: pos, Count: 1, SrcRank: srcRank, DstRank: dstRank, SrcOff: srcOff, DstOff: dstOff})
}

// appendRouteRuns appends every position of seg and leaves exactly the
// list seg.Count calls of appendRouteRun would, in O(1), the way
// appendOffsetRuns does.
func appendRouteRuns(runs []RouteRun, seg *RouteRun) []RouteRun {
	k := int32(0)
	for ; k < seg.Count && k < 3; k++ {
		runs = appendRouteRun(runs, seg.Pos+k, seg.SrcRank, seg.srcAt(k), seg.DstRank, seg.dstAt(k))
	}
	if k < seg.Count {
		runs[len(runs)-1].Count += seg.Count - k
	}
	return runs
}

// ComputeRoutes derives the transfer's route map locally, by
// dereferencing both sides over the full position range.  Unlike
// ComputeSchedule it is not collective — but it requires both
// descriptors (both Specs non-nil, with Deref-capable libraries) on the
// calling process, which is exactly the situation in the coupling
// service (every rank decodes both DistSpecs from the broadcast) and in
// single-program transfers.  Virtual time is charged through the
// libraries' own dereference accounting.
func ComputeRoutes(c *Coupling, src, dst *Spec) (*RouteMap, error) {
	if src == nil || dst == nil {
		return nil, fmt.Errorf("core: route computation needs both descriptors locally")
	}
	n, err := transferSize(sizeInt32(src), sizeInt32(dst))
	if err != nil {
		return nil, err
	}
	srcRuns := src.Lib.DerefRange(src.Ctx, src.Obj, src.Set, 0, n)
	dstRuns := runCursor{runs: dst.Lib.DerefRange(dst.Ctx, dst.Obj, dst.Set, 0, n)}
	rm := &RouteMap{Elems: n}
	var seg RouteRun
	for _, s := range srcRuns {
		for s.Count > 0 {
			dstRuns.cut(&s, &seg)
			seg.SrcRank = int32(c.Union.WorldRank(c.SrcRanks[seg.SrcRank]))
			seg.DstRank = int32(c.Union.WorldRank(c.DstRanks[seg.DstRank]))
			rm.Runs = appendRouteRuns(rm.Runs, &seg)
		}
	}
	dstRuns.done()
	return rm, nil
}

// BlockRoutes builds the route map of an irregular-block
// redistribution directly from the per-part element counts, in
// O(parts) — no dereference, no Ctx, no world.  Part i of the source
// side holds srcCounts[i] consecutive positions (offsets 0..count-1
// locally) on world rank srcWorld[i]; likewise for the destination.
// It is the O(delta)-friendly constructor for the common "a boundary
// shifted" case, and the harness-side generator for repair benchmarks
// and tests.
func BlockRoutes(srcCounts, dstCounts, srcWorld, dstWorld []int) (*RouteMap, error) {
	if len(srcCounts) != len(srcWorld) || len(dstCounts) != len(dstWorld) {
		return nil, fmt.Errorf("core: block routes: counts and world-rank lists disagree (%d/%d source, %d/%d destination)",
			len(srcCounts), len(srcWorld), len(dstCounts), len(dstWorld))
	}
	n, nd := 0, 0
	for _, c := range srcCounts {
		n += c
	}
	for _, c := range dstCounts {
		nd += c
	}
	if n != nd {
		return nil, fmt.Errorf("core: block routes: source covers %d elements, destination %d", n, nd)
	}
	rm := &RouteMap{Elems: n}
	pos := 0
	si, di := 0, 0       // current part on each side
	sBase, dBase := 0, 0 // global position where the current part starts
	for pos < n {
		for si < len(srcCounts) && pos >= sBase+srcCounts[si] {
			sBase += srcCounts[si]
			si++
		}
		for di < len(dstCounts) && pos >= dBase+dstCounts[di] {
			dBase += dstCounts[di]
			di++
		}
		end := n
		if e := sBase + srcCounts[si]; e < end {
			end = e
		}
		if e := dBase + dstCounts[di]; e < end {
			end = e
		}
		rm.Runs = append(rm.Runs, RouteRun{
			Pos:     int32(pos),
			Count:   int32(end - pos),
			SrcRank: int32(srcWorld[si]), DstRank: int32(dstWorld[di]),
			SrcOff: int32(pos - sBase), SrcStride: 1,
			DstOff: int32(pos - dBase), DstStride: 1,
		})
		pos = end
	}
	return rm, nil
}

// RouteDelta is the outcome of diffing two route maps: the new map,
// plus how many element positions route differently.  Changed is what
// the RepairOrRebuild policy thresholds on.
type RouteDelta struct {
	// Next is the new routing.
	Next *RouteMap
	// Changed counts positions whose (source rank, source offset,
	// destination rank, destination offset) differ between the maps.
	Changed int
}

// Frac returns the changed fraction of the transfer, in [0, 1].
func (d *RouteDelta) Frac() float64 {
	if d.Next == nil || d.Next.Elems == 0 {
		return 1
	}
	return float64(d.Changed) / float64(d.Next.Elems)
}

// Diff compares this route map against next, counting the positions
// that route differently.  It walks the two run lists with boundary
// splitting, so the cost is O(runs), independent of the element count.
// Maps with different element counts are treated as fully changed.
func (rm *RouteMap) Diff(next *RouteMap) *RouteDelta {
	d := &RouteDelta{Next: next}
	if rm == nil || rm.Elems != next.Elems {
		d.Changed = next.Elems
		return d
	}
	oi, ni := 0, 0
	pos := int32(0)
	for int(pos) < rm.Elems {
		for oi < len(rm.Runs) && pos >= rm.Runs[oi].Pos+rm.Runs[oi].Count {
			oi++
		}
		for ni < len(next.Runs) && pos >= next.Runs[ni].Pos+next.Runs[ni].Count {
			ni++
		}
		o, nr := &rm.Runs[oi], &next.Runs[ni]
		end := o.Pos + o.Count
		if e := nr.Pos + nr.Count; e < end {
			end = e
		}
		ko, kn := pos-o.Pos, pos-nr.Pos
		same := o.SrcRank == nr.SrcRank && o.DstRank == nr.DstRank &&
			o.srcAt(ko) == nr.srcAt(kn) && o.dstAt(ko) == nr.dstAt(kn) &&
			(end-pos == 1 || (o.SrcStride == nr.SrcStride && o.DstStride == nr.DstStride))
		if !same {
			d.Changed += int(end - pos)
		}
		pos = end
	}
	return d
}
