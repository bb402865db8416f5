package core_test

import (
	"fmt"

	"metachaos/internal/chaoslib"
	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/gidx"
	"metachaos/internal/lparx"
	"metachaos/internal/pcxxrt"
	"metachaos/internal/seclib"
)

// The five libraries' inquiry functions as they were when they
// answered one element at a time: a coordinate slice per point, an
// owner and offset lookup per point, the same virtual-time charges.
// They are the reference side of FuzzScheduleRunsVsElements.

// refSec is the regular-section library (hpfrt and mbparti).
type refSec struct{}

func secOffset(so seclib.Object, rank int, local []int) int {
	counts := so.SecDist().LocalCounts(rank)
	off := 0
	for d, lc := range local {
		off = off*(counts[d]+2*so.Halo()) + lc + so.Halo()
	}
	return off
}

func secLocate(so seclib.Object, coords, localBuf []int) core.Loc {
	rank, local := so.SecDist().LocalCoords(coords, localBuf)
	return core.Loc{Proc: int32(rank), Off: int32(secOffset(so, rank, local))}
}

func (refSec) DerefRange(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, lo, hi int) []core.Loc {
	so := o.(seclib.Object)
	out := make([]core.Loc, 0, hi-lo)
	coords := make([]int, len(so.SecDist().Shape()))
	local := make([]int, len(so.SecDist().Shape()))
	for at := lo; at < hi; {
		span := set.SpanAt(at, hi)
		at = span.Base + span.Hi
		sec := set.Region(span.Index).(gidx.Section)
		for k := span.Lo; k < span.Hi; k++ {
			sec.PointAt(k, coords)
			out = append(out, secLocate(so, coords, local))
		}
	}
	ctx.P.ChargeSectionOps(hi - lo)
	return out
}

func (refSec) DerefAt(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, positions []int32) []core.Loc {
	so := o.(seclib.Object)
	out := make([]core.Loc, len(positions))
	coords := make([]int, len(so.SecDist().Shape()))
	local := make([]int, len(so.SecDist().Shape()))
	for i, pos := range positions {
		ri, inner := set.RegionOf(int(pos))
		set.Region(ri).(gidx.Section).PointAt(inner, coords)
		out[i] = secLocate(so, coords, local)
	}
	ctx.P.ChargeSectionOps(len(positions))
	return out
}

func (refSec) OwnedPositions(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions) []core.PosLoc {
	so := o.(seclib.Object)
	dist := so.SecDist()
	me := ctx.Comm.Rank()
	var out []core.PosLoc
	local := make([]int, len(dist.Shape()))
	work := 0

	boxLo, boxHi, haveBox := dist.LocalBox(me)
	for i := 0; i < set.Len(); i++ {
		sec := set.Region(i).(gidx.Section)
		base := set.Base(i)
		if haveBox {
			sub, ok := sec.IntersectBox(boxLo, boxHi)
			if !ok {
				work++
				continue
			}
			sub.ForEach(func(_ int, coords []int) {
				pos := sec.IndexOf(coords)
				_, lc := dist.LocalCoords(coords, local)
				out = append(out, core.PosLoc{Pos: int32(base + pos), Off: int32(secOffset(so, me, lc))})
				work++
			})
		} else {
			sec.ForEach(func(pos int, coords []int) {
				rank, lc := dist.LocalCoords(coords, local)
				if rank == me {
					out = append(out, core.PosLoc{Pos: int32(base + pos), Off: int32(secOffset(so, me, lc))})
				}
				work++
			})
		}
	}
	ctx.P.ChargeSectionOps(work)
	return out
}

// refLparx is the LPARX library over a decomposition the test built; it
// never looks at the object, so it serves grids and decoded views alike.
type refLparx struct{ dec *lparx.Decomposition }

func (l refLparx) locate(coords []int) (core.Loc, bool) {
	perOwner := map[int]int{}
	for i := 0; i < l.dec.NumPatches(); i++ {
		pt := l.dec.Patch(i)
		base := perOwner[pt.Owner]
		perOwner[pt.Owner] += pt.Size()
		inside := true
		for d, c := range coords {
			if c < pt.Lo[d] || c >= pt.Hi[d] {
				inside = false
			}
		}
		if !inside {
			continue
		}
		inner, stride := 0, 1
		for d := len(coords) - 1; d >= 0; d-- {
			inner += (coords[d] - pt.Lo[d]) * stride
			stride *= pt.Hi[d] - pt.Lo[d]
		}
		return core.Loc{Proc: int32(pt.Owner), Off: int32(base + inner)}, true
	}
	return core.Loc{}, false
}

func boxSection(r core.Region) gidx.Section {
	b := r.(lparx.BoxRegion)
	return gidx.NewSection(b.Lo, b.Hi)
}

func (l refLparx) DerefRange(ctx *core.Ctx, _ core.DistObject, set *core.SetOfRegions, lo, hi int) []core.Loc {
	out := make([]core.Loc, 0, hi-lo)
	coords := make([]int, len(l.dec.Patch(0).Lo))
	for at := lo; at < hi; {
		span := set.SpanAt(at, hi)
		at = span.Base + span.Hi
		sec := boxSection(set.Region(span.Index))
		for k := span.Lo; k < span.Hi; k++ {
			sec.PointAt(k, coords)
			loc, ok := l.locate(coords)
			if !ok {
				panic(fmt.Sprintf("lparx: region point %v not covered by any patch", coords))
			}
			out = append(out, loc)
		}
	}
	ctx.P.ChargeSectionOps((hi - lo) * l.dec.NumPatches())
	return out
}

func (l refLparx) DerefAt(ctx *core.Ctx, _ core.DistObject, set *core.SetOfRegions, positions []int32) []core.Loc {
	out := make([]core.Loc, len(positions))
	coords := make([]int, len(l.dec.Patch(0).Lo))
	for i, pos := range positions {
		ri, inner := set.RegionOf(int(pos))
		boxSection(set.Region(ri)).PointAt(inner, coords)
		loc, ok := l.locate(coords)
		if !ok {
			panic(fmt.Sprintf("lparx: region point %v not covered by any patch", coords))
		}
		out[i] = loc
	}
	ctx.P.ChargeSectionOps(len(positions) * l.dec.NumPatches())
	return out
}

func (l refLparx) OwnedPositions(ctx *core.Ctx, _ core.DistObject, set *core.SetOfRegions) []core.PosLoc {
	me := ctx.Comm.Rank()
	var out []core.PosLoc
	work := 0
	for i := 0; i < set.Len(); i++ {
		sec := boxSection(set.Region(i))
		base := set.Base(i)
		for pi := 0; pi < l.dec.NumPatches(); pi++ {
			pt := l.dec.Patch(pi)
			if pt.Owner != me {
				continue
			}
			sub, ok := sec.IntersectBox(pt.Lo, pt.Hi)
			if !ok {
				continue
			}
			sub.ForEach(func(_ int, coords []int) {
				loc, _ := l.locate(coords)
				out = append(out, core.PosLoc{Pos: int32(base + sec.IndexOf(coords)), Off: loc.Off})
				work++
			})
		}
	}
	// Positions accumulate per (region, patch) pair; insertion sort by
	// position, as the library did.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Pos < out[j-1].Pos; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	ctx.P.ChargeSectionOps(work + set.Len()*l.dec.NumPatches())
	return out
}

// refPcxx is the pC++ collection library.
type refPcxx struct{}

func (refPcxx) DerefRange(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, lo, hi int) []core.Loc {
	c := o.(*pcxxrt.Collection)
	out := make([]core.Loc, 0, hi-lo)
	for at := lo; at < hi; {
		span := set.SpanAt(at, hi)
		at = span.Base + span.Hi
		r := set.Region(span.Index).(pcxxrt.RangeRegion)
		for k := span.Lo; k < span.Hi; k++ {
			i := r.At(k)
			out = append(out, core.Loc{Proc: int32(c.Owner(i)), Off: int32(c.Slot(i))})
		}
	}
	ctx.P.ChargeSectionOps(hi - lo)
	return out
}

func (refPcxx) DerefAt(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, positions []int32) []core.Loc {
	c := o.(*pcxxrt.Collection)
	out := make([]core.Loc, len(positions))
	for k, pos := range positions {
		ri, inner := set.RegionOf(int(pos))
		i := set.Region(ri).(pcxxrt.RangeRegion).At(inner)
		out[k] = core.Loc{Proc: int32(c.Owner(i)), Off: int32(c.Slot(i))}
	}
	ctx.P.ChargeSectionOps(len(positions))
	return out
}

func (refPcxx) OwnedPositions(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions) []core.PosLoc {
	c := o.(*pcxxrt.Collection)
	me := ctx.Comm.Rank()
	var out []core.PosLoc
	work := 0
	for ri := 0; ri < set.Len(); ri++ {
		r := set.Region(ri).(pcxxrt.RangeRegion)
		base := set.Base(ri)
		for k := 0; k < r.Size(); k++ {
			i := r.At(k)
			if c.Owner(i) == me {
				out = append(out, core.PosLoc{Pos: int32(base + k), Off: int32(c.Slot(i))})
			}
			work++
		}
	}
	ctx.P.ChargeSectionOps(work)
	return out
}

// refChaos is the CHAOS library.  An array dereferences through its
// distributed translation table; a decoded view held the replicated
// table, which the test stands in for with the ownership it dealt.
type refChaos struct {
	proc, off []int32 // by global index
}

func (l refChaos) lookup(ctx *core.Ctx, o core.DistObject, indices []int32) []core.Loc {
	out := make([]core.Loc, len(indices))
	if a, ok := o.(*chaoslib.Array); ok {
		for i, e := range a.Table().Lookup(ctx, indices) {
			out[i] = core.Loc{Proc: e.Proc, Off: e.Off}
		}
		return out
	}
	for i, g := range indices {
		out[i] = core.Loc{Proc: l.proc[g], Off: l.off[g]}
	}
	ctx.P.ChargeMemOps(len(indices))
	return out
}

func (l refChaos) DerefRange(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, lo, hi int) []core.Loc {
	indices := make([]int32, 0, hi-lo)
	for at := lo; at < hi; {
		span := set.SpanAt(at, hi)
		at = span.Base + span.Hi
		indices = append(indices, set.Region(span.Index).(chaoslib.IndexRegion)[span.Lo:span.Hi]...)
	}
	return l.lookup(ctx, o, indices)
}

func (l refChaos) DerefAt(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, positions []int32) []core.Loc {
	indices := make([]int32, len(positions))
	for i, pos := range positions {
		ri, inner := set.RegionOf(int(pos))
		indices[i] = set.Region(ri).(chaoslib.IndexRegion)[inner]
	}
	ctx.P.ChargeMemOps(len(positions))
	return l.lookup(ctx, o, indices)
}

func (l refChaos) OwnedPositions(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions) []core.PosLoc {
	comm := ctx.Comm
	p := ctx.P
	n := set.Size()
	nP := comm.Size()
	me := comm.Rank()
	lo, hi := me*n/nP, (me+1)*n/nP
	locs := l.DerefRange(ctx, o, set, lo, hi)

	bufs := make([]codec.Writer, nP)
	for k, loc := range locs {
		w := &bufs[loc.Proc]
		w.PutInt32(int32(lo + k))
		w.PutInt32(loc.Off)
	}
	p.ChargeMemOps(hi - lo)
	outs := make([][]byte, nP)
	for r := range outs {
		outs[r] = bufs[r].Bytes()
	}
	parts := comm.Alltoall(outs, nil)
	var out []core.PosLoc
	for _, part := range parts {
		r := codec.NewReader(part)
		for r.Remaining() > 0 {
			out = append(out, core.PosLoc{Pos: r.Int32(), Off: r.Int32()})
		}
	}
	p.ChargeMemOps(len(out))
	return out
}
