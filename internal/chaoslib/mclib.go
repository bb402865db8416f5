package chaoslib

import (
	"fmt"

	"metachaos/internal/codec"
	"metachaos/internal/core"
)

// Meta-Chaos bindings: CHAOS's Region type is a set of global array
// indices, and its dereference machinery is the translation table, so
// every inquiry function is collective in the table's distributed form.

// IndexRegion is a CHAOS region: an explicit list of global element
// indices, linearized in list order.
type IndexRegion []int32

// Size returns the number of elements in the region.
func (r IndexRegion) Size() int { return len(r) }

// Lib implements the Meta-Chaos inquiry interface for CHAOS arrays.
type Lib struct{}

// Library is the registered CHAOS binding.
var Library = Lib{}

func init() { core.RegisterLibrary(Library) }

// Name returns the registry name.
func (Lib) Name() string { return "chaos" }

func (Lib) region(set *core.SetOfRegions, i int) IndexRegion {
	r, ok := set.Region(i).(IndexRegion)
	if !ok {
		panic(fmt.Sprintf("chaos: region %d has type %T, want IndexRegion", i, set.Region(i)))
	}
	return r
}

// DerefRange appends the locations of set positions [lo, hi).
// Collective: a single translation-table lookup round serves the whole
// range.
func (l Lib) DerefRange(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, lo, hi int, out []core.LocRun) []core.LocRun {
	tt := tableOf(o)
	at := []core.PosRange{{Lo: int32(lo), Hi: int32(hi)}}
	return tt.lookupRuns(ctx, l.indices(tt, set, at), at, out)
}

// DerefAt appends the locations of the positions in the given
// intervals.
func (l Lib) DerefAt(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, at []core.PosRange, out []core.LocRun) []core.LocRun {
	tt := tableOf(o)
	indices := l.indices(tt, set, at)
	ctx.P.ChargeMemOps(len(indices))
	return tt.lookupRuns(ctx, indices, at, out)
}

// indices lists the global indices at the positions in at, in order, in
// tt's lookup scratch: they are read only by the lookup round that
// follows.
func (l Lib) indices(tt *TTable, set *core.SetOfRegions, at []core.PosRange) []int32 {
	out := tt.scratch.indices[:0]
	for _, iv := range at {
		for lo, hi := int(iv.Lo), int(iv.Hi); lo < hi; {
			span := set.SpanAt(lo, hi)
			out = append(out, l.region(set, span.Index)[span.Lo:span.Hi]...)
			lo = span.Base + span.Hi
		}
	}
	tt.scratch.indices = out
	return out
}

// OwnedPositions chunks the set's positions over the program, looks
// each chunk up, and routes every (position, offset) pair to its
// owner: cost one lookup round plus one all-to-all, the same pattern
// the original library used to invert a distribution.
func (l Lib) OwnedPositions(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, out []core.LocRun) []core.LocRun {
	comm := ctx.Comm
	p := ctx.P
	n := set.Size()
	nP := comm.Size()
	me := comm.Rank()
	lo, hi := me*n/nP, (me+1)*n/nP

	bufs := make([]codec.Writer, nP)
	for _, run := range l.DerefRange(ctx, o, set, lo, hi, nil) {
		w := &bufs[run.Proc]
		for k := int32(0); k < run.Count; k++ {
			w.PutInt32(run.Pos + k)
			w.PutInt32(run.Off + k*run.Stride)
		}
	}
	p.ChargeMemOps(hi - lo)
	outs := make([][]byte, nP)
	for r := range outs {
		outs[r] = bufs[r].Bytes()
	}
	parts := comm.Alltoall(outs, nil)
	ans := out[len(out):] // nothing fuses into out's own runs
	owned := 0
	// Chunks arrive in increasing producer rank, and produce increasing
	// positions, so concatenation keeps the list sorted by position.
	for _, part := range parts {
		r := codec.NewReader(part)
		for r.Remaining() > 0 {
			ans = core.AppendLoc(ans, r.Int32(), int32(me), r.Int32())
			owned++
		}
	}
	p.ChargeMemOps(owned)
	return append(out, ans...)
}

// EncodeDescriptor serializes the full translation table, collectively
// gathering the distributed pages; the result is as large as the array
// itself — CHAOS has no compact descriptor, the reason the paper calls
// the duplication method impractical between CHAOS programs.
func (Lib) EncodeDescriptor(ctx *core.Ctx, o core.DistObject) ([]byte, bool) {
	tt := tableOf(o)
	full := tt.Replicate(ctx)
	return full.encodeFull(), false
}

// DecodeDescriptor rebuilds a replicated-table remote view.
func (Lib) DecodeDescriptor(data []byte) (core.DistObject, error) {
	tt, err := decodeFull(data)
	if err != nil {
		return nil, err
	}
	return &view{tt: tt}, nil
}

// EncodeRegion serializes an index region.
func (Lib) EncodeRegion(r core.Region) []byte {
	ir, ok := r.(IndexRegion)
	if !ok {
		panic(fmt.Sprintf("chaos: encoding region of type %T", r))
	}
	var w codec.Writer
	w.PutInt32s(ir)
	return w.Bytes()
}

// DecodeRegion deserializes an index region.
func (Lib) DecodeRegion(data []byte) (core.Region, error) {
	return IndexRegion(codec.NewReader(data).Int32s()), nil
}

// Interface checks.
var (
	_ core.Library         = Lib{}
	_ core.DescriptorCodec = Lib{}
	_ core.RegionCodec     = Lib{}
	_ core.DistObject      = (*Array)(nil)
	_ core.DistObject      = (*view)(nil)
)
