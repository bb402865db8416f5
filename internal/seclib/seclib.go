// Package seclib implements the Meta-Chaos inquiry interface for
// libraries whose Region type is a regularly distributed array section
// — the Multiblock Parti and HPF runtime analogues.  Both libraries
// reuse this one implementation with their own names and halo widths,
// mirroring how the original libraries shared the regular-section
// dereference machinery.
package seclib

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
)

// Object is what a regular-array library's distributed array must
// expose for seclib to dereference it: the distribution descriptor and
// the halo (ghost-cell margin) baked into its local storage layout.
type Object interface {
	core.DistObject
	SecDist() *distarray.Dist
	Halo() int
}

// Lib is a Meta-Chaos library binding for section regions.  It is
// stateless; each regular-array package creates one with its own name
// and registers it.
type Lib struct {
	name string
}

// New creates a section-region library binding with the given registry
// name.
func New(name string) *Lib { return &Lib{name: name} }

// Name returns the registry name.
func (l *Lib) Name() string { return l.name }

func (l *Lib) object(o core.DistObject) Object {
	so, ok := o.(Object)
	if !ok {
		panic(fmt.Sprintf("%s: object of type %T does not expose a section distribution", l.name, o))
	}
	return so
}

func (l *Lib) section(set *core.SetOfRegions, i int) gidx.Section {
	r := set.Region(i)
	sec, ok := r.(gidx.Section)
	if !ok {
		panic(fmt.Sprintf("%s: region %d has type %T, want a regular array section", l.name, i, r))
	}
	return sec
}

// walker dereferences sections of one object in closed form: a row of
// a section crosses the distribution's chunks (see distarray.Chunk) one
// after another, and within a chunk the owner is fixed and the local
// index advances with the section's step, so every chunk crossing is
// one run.  Nothing is computed or allocated per element or per row.
type walker struct {
	dist *distarray.Dist
	halo int
	// only restricts the answer to one rank's elements; -1 keeps all.
	only  int
	out   []core.LocRun
	elems int // how many elements the walk has appended to out
}

// span appends the runs of positions [lo, hi) of sec, whose first
// position in the set is base.
func (w *walker) span(sec gidx.Section, base, lo, hi int) {
	if lo >= hi {
		return
	}
	dist, halo, grid := w.dist, w.halo, w.dist.Grid()
	last := len(grid) - 1
	step := sec.Step[last]
	var fixed [8]int // up to 8 dimensions, the coordinates stay on the stack
	coords := fixed[:]
	if len(grid) > len(fixed) {
		coords = make([]int, len(grid))
	}
	coords = sec.PointAt(lo, coords[:len(grid)])
	for pos := lo; pos < hi; {
		// One row fragment: from coords to the row's end, or hi.
		c := coords[last]
		n := min(hi-pos, (sec.Hi[last]-c+step-1)/step)
		// The leading dimensions fix the row's owners and the leading
		// terms of the offset into the owner's halo-padded tile.
		rank, off := 0, 0
		for d := 0; d < last; d++ {
			g, local, _ := dist.Chunk(d, coords[d])
			rank = rank*grid[d] + g
			off = off*(dist.TileExtent(d, g)+2*halo) + local + halo
		}
		rank *= grid[last]
		if w.only >= 0 && rank != w.only-w.only%grid[last] {
			pos, n = pos+n, 0
		}
		for n > 0 {
			g, local, end := dist.Chunk(last, c)
			count := min(n, (end-c+step-1)/step)
			if w.only < 0 || rank+g == w.only {
				w.out = append(w.out, core.LocRun{
					Pos:    int32(base + pos),
					Proc:   int32(rank + g),
					Off:    int32(off*(dist.TileExtent(last, g)+2*halo) + local + halo),
					Stride: int32(step),
					Count:  int32(count),
				})
				w.elems += count
			}
			pos, c, n = pos+count, c+count*step, n-count
		}
		// The next row starts at the leading dimensions' next point.
		for d := last; d >= 0; d-- {
			if coords[d] += sec.Step[d]; d < last && coords[d] < sec.Hi[d] {
				break
			}
			coords[d] = sec.Lo[d]
		}
	}
}

// DerefRange appends the locations of set positions [lo, hi).  Pure
// arithmetic: regular distributions dereference without communication.
func (l *Lib) DerefRange(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, lo, hi int, out []core.LocRun) []core.LocRun {
	return l.DerefAt(ctx, o, set, []core.PosRange{{Lo: int32(lo), Hi: int32(hi)}}, out)
}

// DerefAt appends the locations of the positions in the given
// intervals.
func (l *Lib) DerefAt(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, at []core.PosRange, out []core.LocRun) []core.LocRun {
	so := l.object(o)
	w := walker{dist: so.SecDist(), halo: so.Halo(), only: -1, out: out}
	for _, iv := range at {
		for lo, hi := int(iv.Lo), int(iv.Hi); lo < hi; {
			span := set.SpanAt(lo, hi)
			w.span(l.section(set, span.Index), span.Base, span.Lo, span.Hi)
			lo = span.Base + span.Hi
		}
	}
	ctx.P.ChargeSectionOps(core.RangesLen(at))
	return w.out
}

// OwnedPositions appends the caller's share of every section.  Where
// every dimension is BLOCK the original library intersected each
// section with the caller's tile box, at a cost proportional to the
// elements owned; with a cyclic dimension there is no box and it
// scanned the set.  The charges keep to that.
func (l *Lib) OwnedPositions(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, out []core.LocRun) []core.LocRun {
	so := l.object(o)
	w := walker{dist: so.SecDist(), halo: so.Halo(), only: ctx.Comm.Rank(), out: out}
	haveBox := !slices.ContainsFunc(w.dist.Kinds(), func(k distarray.Kind) bool { return k != distarray.Block })
	work := 0
	for i := 0; i < set.Len(); i++ {
		sec := l.section(set, i)
		before := w.elems
		w.span(sec, set.Base(i), 0, sec.Size())
		if haveBox {
			work += max(w.elems-before, 1)
		} else {
			work += sec.Size()
		}
	}
	ctx.P.ChargeSectionOps(work)
	return w.out
}

// MaxLocalElems returns the size of the largest halo-padded tile.
func (l *Lib) MaxLocalElems(o core.DistObject) int {
	so := l.object(o)
	dist, n := so.SecDist(), 1
	for d, p := range dist.Grid() {
		ext := 0
		for g := 0; g < p; g++ {
			ext = max(ext, dist.TileExtent(d, g))
		}
		// Stop at the first product past any bound a caller checks;
		// further factors are at least 1 and could overflow.
		if n *= ext + 2*so.Halo(); n > math.MaxInt32 {
			break
		}
	}
	return n
}

// EncodeDescriptor serializes the distribution descriptor (shape, grid,
// kinds, halo, element type); regular descriptors are compact.  The
// element type packs into the int32 slot that used to carry a bare
// float64 word count, so float64 descriptors are byte-identical to the
// legacy format.  The bytes are codec's, written into one buffer of
// their exact size.
func (l *Lib) EncodeDescriptor(ctx *core.Ctx, o core.DistObject) ([]byte, bool) {
	so := l.object(o)
	dist := so.SecDist()
	shape, grid, kinds, params := dist.Shape(), dist.Grid(), dist.Kinds(), dist.Params()
	b := make([]byte, 0, 4*(6+len(shape)+len(grid)+len(kinds)+len(params)))
	b = appendInts(b, shape)
	b = appendInts(b, grid)
	b = appendInts(b, kinds)
	b = appendInts(b, params)
	b = binary.LittleEndian.AppendUint32(b, uint32(so.Halo()))
	b = binary.LittleEndian.AppendUint32(b, uint32(core.PackElem(so.Elem())))
	return b, true
}

// appendInts appends vs to b as codec.Writer.PutInts writes them: a
// length, then one int32 each.
func appendInts[T ~int](b []byte, vs []T) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// DecodeDescriptor rebuilds a descriptor-only view able to dereference
// without communication.
func (l *Lib) DecodeDescriptor(data []byte) (core.DistObject, error) {
	r := codec.NewReader(data)
	shape := gidx.Shape(r.Ints())
	grid := r.Ints()
	kinds := make([]distarray.Kind, r.Int32()) // as PutInts wrote them
	for i := range kinds {
		kinds[i] = distarray.Kind(r.Int32())
	}
	params := r.Ints()
	halo := int(r.Int32())
	et := core.UnpackElem(r.Int32())
	dist, err := distarray.NewDistParams(shape, grid, kinds, params)
	if err != nil {
		return nil, fmt.Errorf("%s: decoding descriptor: %w", l.name, err)
	}
	return NewView(dist, halo, et), nil
}

// EncodeRegion serializes a section region, as EncodeDescriptor does
// its descriptor.
func (l *Lib) EncodeRegion(r core.Region) []byte {
	sec, ok := r.(gidx.Section)
	if !ok {
		panic(fmt.Sprintf("%s: encoding region of type %T", l.name, r))
	}
	b := make([]byte, 0, 4*(3+len(sec.Lo)+len(sec.Hi)+len(sec.Step)))
	b = appendInts(b, sec.Lo)
	b = appendInts(b, sec.Hi)
	return appendInts(b, sec.Step)
}

// DecodeRegion deserializes a section region.
func (l *Lib) DecodeRegion(data []byte) (core.Region, error) {
	r := codec.NewReader(data)
	return gidx.Section{Lo: r.Ints(), Hi: r.Ints(), Step: r.Ints()}, nil
}

// NewView builds a descriptor-only object over an existing
// distribution: it dereferences exactly like a full array with that
// distribution and ghost margin but holds no data.
func NewView(dist *distarray.Dist, halo int, et core.ElemType) *View {
	return &View{dist: dist, halo: halo, et: et}
}

// View is a descriptor-only remote image of a regular distributed
// array: it dereferences but holds no data.
type View struct {
	dist *distarray.Dist
	halo int
	et   core.ElemType
}

// Elem returns the decoded element type.
func (v *View) Elem() core.ElemType { return v.et }

// LocalMem returns nil storage: views carry no elements.
func (v *View) LocalMem() core.Mem { return core.NilMem(v.et) }

// SecDist returns the decoded distribution descriptor.
func (v *View) SecDist() *distarray.Dist { return v.dist }

// Halo returns the decoded ghost margin width.
func (v *View) Halo() int { return v.halo }
