// Package lparx is an LPARX-style runtime analogue: distributed grids
// defined as unions of arbitrary rectangular patches, each patch owned
// wholly by one process — the decomposition shape adaptive mesh
// refinement codes use (the paper's introduction lists LPARX and
// AMR++/P++ among the libraries Meta-Chaos should interoperate with).
//
// It is the repository's fifth Meta-Chaos library, added after the
// paper's four to exercise the extensibility claim with a distribution
// that is neither a regular grid nor a pointwise table: its Region
// type is a rectangular box over the global index space, and
// dereferencing walks the replicated patch list.
package lparx

import (
	"fmt"
	"slices"
	"sort"

	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/gidx"
)

// Patch is one rectangular piece of a decomposition: the half-open box
// [Lo, Hi) owned by process Owner.
type Patch struct {
	Lo, Hi []int
	Owner  int
}

// Size returns the number of points in the patch.
func (pt Patch) Size() int {
	n := 1
	for d := range pt.Lo {
		n *= pt.Hi[d] - pt.Lo[d]
	}
	return n
}

func (pt Patch) contains(coords []int) bool {
	for d, c := range coords {
		if c < pt.Lo[d] || c >= pt.Hi[d] {
			return false
		}
	}
	return true
}

// Decomposition is the replicated patch list of one distributed grid.
// Patches must be disjoint; the union need not cover a rectangle (AMR
// levels rarely do).
type Decomposition struct {
	rank    int // dimensionality
	nprocs  int
	patches []Patch
	// base[i] is the element offset of patch i within its owner's
	// local storage.
	base []int
	// local[r] is the number of points rank r stores.
	local []int
	// owned[r] lists rank r's patches by ascending Lo in the last
	// dimension, the order in which they cross any one row.
	owned [][]int
}

// NewDecomposition validates the patch list.  Patches are stored in
// the given order; each process's storage concatenates its patches in
// that order (row-major within a patch).
func NewDecomposition(nprocs int, patches []Patch) (*Decomposition, error) {
	if len(patches) == 0 {
		return nil, fmt.Errorf("lparx: decomposition needs at least one patch")
	}
	rank := len(patches[0].Lo)
	d := &Decomposition{rank: rank, nprocs: nprocs, local: make([]int, nprocs)}
	for i, pt := range patches {
		if len(pt.Lo) != rank || len(pt.Hi) != rank {
			return nil, fmt.Errorf("lparx: patch %d has rank %d/%d, want %d", i, len(pt.Lo), len(pt.Hi), rank)
		}
		for dim := range pt.Lo {
			if pt.Hi[dim] <= pt.Lo[dim] {
				return nil, fmt.Errorf("lparx: patch %d is empty in dim %d", i, dim)
			}
		}
		if pt.Owner < 0 || pt.Owner >= nprocs {
			return nil, fmt.Errorf("lparx: patch %d owned by rank %d of %d", i, pt.Owner, nprocs)
		}
		for j := 0; j < i; j++ {
			if overlap(patches[j], pt) {
				return nil, fmt.Errorf("lparx: patches %d and %d overlap", j, i)
			}
		}
		d.base = append(d.base, d.local[pt.Owner])
		d.local[pt.Owner] += pt.Size()
	}
	d.patches = append([]Patch(nil), patches...)
	d.owned = make([][]int, nprocs)
	for i, pt := range patches {
		d.owned[pt.Owner] = append(d.owned[pt.Owner], i)
	}
	last := rank - 1
	for _, mine := range d.owned {
		sort.SliceStable(mine, func(a, b int) bool { return patches[mine[a]].Lo[last] < patches[mine[b]].Lo[last] })
	}
	return d, nil
}

func overlap(a, b Patch) bool {
	for d := range a.Lo {
		if a.Hi[d] <= b.Lo[d] || b.Hi[d] <= a.Lo[d] {
			return false
		}
	}
	return true
}

// NumPatches returns the patch count.
func (d *Decomposition) NumPatches() int { return len(d.patches) }

// Patch returns patch i.
func (d *Decomposition) Patch(i int) Patch { return d.patches[i] }

// LocalSize returns the number of points rank owns.
func (d *Decomposition) LocalSize(rank int) int { return d.local[rank] }

// offsetIn returns the element offset, within its owner's storage, of
// the point at coords, which patch i must contain.
func (d *Decomposition) offsetIn(i int, coords []int) int {
	pt := &d.patches[i]
	inner := 0
	for dim := range coords {
		inner = inner*(pt.Hi[dim]-pt.Lo[dim]) + coords[dim] - pt.Lo[dim]
	}
	return d.base[i] + inner
}

// patchAt returns the index of the patch covering coords, or -1.
func (d *Decomposition) patchAt(coords []int) int {
	for i := range d.patches {
		if d.patches[i].contains(coords) {
			return i
		}
	}
	return -1
}

// Grid is one process's storage for a decomposed grid.  Grids default
// to float64 points; NewGridTyped builds grids of any core.ElemType.
type Grid struct {
	dec  *Decomposition
	rank int
	mem  core.Mem
	data []float64 // float64 alias of mem (nil for other element kinds)
}

// NewGrid allocates rank's patches of the decomposition as float64
// points.
func NewGrid(dec *Decomposition, rank int) *Grid {
	return NewGridTyped(dec, rank, core.Float64)
}

// NewGridTyped is NewGrid for an arbitrary element type.
func NewGridTyped(dec *Decomposition, rank int, et core.ElemType) *Grid {
	g := &Grid{dec: dec, rank: rank, mem: core.MakeMem(et, dec.LocalSize(rank))}
	g.data = g.mem.Float64s()
	return g
}

// Dec returns the decomposition.
func (g *Grid) Dec() *Decomposition { return g.dec }

// Elem returns the grid's element type.
func (g *Grid) Elem() core.ElemType { return g.mem.Elem() }

// LocalMem returns the local storage (owned patches concatenated).
func (g *Grid) LocalMem() core.Mem { return g.mem }

// Local returns the local storage of a float64 grid; it is nil for
// other element kinds (use LocalMem).
func (g *Grid) Local() []float64 { return g.data }

// unitOf locates the first storage unit of a locally owned point.
func (g *Grid) unitOf(coords []int) int {
	i := g.dec.patchAt(coords)
	if i < 0 || g.dec.patches[i].Owner != g.rank {
		panic(fmt.Sprintf("lparx: rank %d addressing %v (owned=%v)", g.rank, coords, i >= 0))
	}
	return g.dec.offsetIn(i, coords) * g.mem.Elem().Words
}

// Get reads a locally owned point (its first scalar, converted to
// float64) by global coordinates.
func (g *Grid) Get(coords []int) float64 { return g.mem.GetF(g.unitOf(coords)) }

// FillGlobal sets every locally owned point to f(coords); multi-word
// elements have every scalar set.
func (g *Grid) FillGlobal(f func(coords []int) float64) {
	w := g.mem.Elem().Words
	for i, pt := range g.dec.patches {
		if pt.Owner != g.rank {
			continue
		}
		sec := gidx.NewSection(pt.Lo, pt.Hi)
		base := g.dec.base[i]
		sec.ForEach(func(pos int, coords []int) {
			v := f(coords)
			for j := 0; j < w; j++ {
				g.mem.SetF((base+pos)*w+j, v)
			}
		})
	}
}

// view is a descriptor-only remote image of a grid.  The patch list is
// the whole descriptor, so a view reports the default float64 element
// type; views dereference but never carry or receive data, so the type
// is never consulted.
type view struct{ dec *Decomposition }

func (v *view) Elem() core.ElemType { return core.Float64 }
func (v *view) LocalMem() core.Mem  { return core.NilMem(core.Float64) }

// decOf extracts the decomposition from a grid or view.
func decOf(o core.DistObject) *Decomposition {
	switch t := o.(type) {
	case *Grid:
		return t.dec
	case *view:
		return t.dec
	}
	panic(fmt.Sprintf("lparx: object of type %T is not an LPARX grid", o))
}

// BoxRegion is LPARX's Region type: a half-open rectangular box in the
// global index space, linearized row-major.  Every point of the box
// must be covered by the decomposition when the region is
// dereferenced.
type BoxRegion struct {
	Lo, Hi []int
}

// Size returns the number of points in the box.
func (r BoxRegion) Size() int { return r.section().Size() }

// maxStackDims is the rank up to which a box's section shares
// unitSteps and the inquiry functions keep coordinates on the stack.
const maxStackDims = 8

// unitSteps is the Step of every box's section of up to maxStackDims
// dimensions; sections only read it.
var unitSteps = [maxStackDims]int{1, 1, 1, 1, 1, 1, 1, 1}

// section returns the box as a unit-step section over its own bounds,
// which the caller only reads.
func (r BoxRegion) section() gidx.Section {
	if len(r.Lo) > len(unitSteps) {
		return gidx.NewSection(r.Lo, r.Hi)
	}
	return gidx.Section{Lo: r.Lo, Hi: r.Hi, Step: unitSteps[:len(r.Lo)]}
}

// coordsIn returns a coordinate slice of rank dimensions in fixed, or
// on the heap above maxStackDims.
func coordsIn(fixed *[maxStackDims]int, rank int) []int {
	if rank > len(fixed) {
		return make([]int, rank)
	}
	return fixed[:rank]
}

// Lib implements the Meta-Chaos inquiry interface for LPARX grids.
type Lib struct{}

// Library is the registered LPARX binding.
var Library = Lib{}

func init() { core.RegisterLibrary(Library) }

// Name returns the registry name.
func (Lib) Name() string { return "lparx" }

func region(set *core.SetOfRegions, i int) BoxRegion {
	r, ok := set.Region(i).(BoxRegion)
	if !ok {
		panic(fmt.Sprintf("lparx: region %d has type %T, want BoxRegion", i, set.Region(i)))
	}
	return r
}

// DerefRange appends the locations of set positions [lo, hi).
func (l Lib) DerefRange(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, lo, hi int, out []core.LocRun) []core.LocRun {
	return l.DerefAt(ctx, o, set, []core.PosRange{{Lo: int32(lo), Hi: int32(hi)}}, out)
}

// DerefAt appends the locations of the positions in the given
// intervals: a patch lookup against the replicated decomposition,
// charged per point.  A row of a box crosses patches one after another,
// and inside a patch the storage is contiguous along the row, so every
// crossing is one run.
func (Lib) DerefAt(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, at []core.PosRange, out []core.LocRun) []core.LocRun {
	dec := decOf(o)
	last := dec.rank - 1
	var fixed [maxStackDims]int
	coords := coordsIn(&fixed, dec.rank)
	// Consecutive intervals mostly fall in one region; its section is
	// built once.
	cur, sec := -1, gidx.Section{}
	for _, iv := range at {
		for lo, hi := int(iv.Lo), int(iv.Hi); lo < hi; {
			span := set.SpanAt(lo, hi)
			if span.Index != cur {
				cur, sec = span.Index, region(set, span.Index).section()
			}
			for pos := span.Lo; pos < span.Hi; {
				sec.PointAt(pos, coords)
				i := dec.patchAt(coords)
				if i < 0 {
					panic(fmt.Sprintf("lparx: region point %v not covered by any patch", slices.Clone(coords)))
				}
				// To the end of the patch, of the box's row, or of the span.
				n := min(span.Hi-pos, min(dec.patches[i].Hi[last], sec.Hi[last])-coords[last])
				out = append(out, core.LocRun{
					Pos:    int32(span.Base + pos),
					Proc:   int32(dec.patches[i].Owner),
					Off:    int32(dec.offsetIn(i, coords)),
					Stride: 1,
					Count:  int32(n),
				})
				pos += n
			}
			lo = span.Base + span.Hi
		}
	}
	ctx.P.ChargeSectionOps(core.RangesLen(at) * dec.NumPatches())
	return out
}

// OwnedPositions appends the intersections of each row of each region
// box with the caller's patches.
func (Lib) OwnedPositions(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, out []core.LocRun) []core.LocRun {
	dec := decOf(o)
	me := ctx.Comm.Rank()
	last := dec.rank - 1
	var fixed [maxStackDims]int
	coords := coordsIn(&fixed, dec.rank)
	work := 0
	for ri := 0; ri < set.Len(); ri++ {
		sec := region(set, ri).section()
		base, width := set.Base(ri), sec.Hi[last]-sec.Lo[last]
		for pos := 0; pos < sec.Size(); pos += width {
			sec.PointAt(pos, coords)
			for _, i := range dec.owned[me] {
				pt := &dec.patches[i]
				a, b := max(sec.Lo[last], pt.Lo[last]), min(sec.Hi[last], pt.Hi[last])
				if a >= b {
					continue
				}
				if coords[last] = a; !pt.contains(coords) {
					continue
				}
				out = append(out, core.LocRun{
					Pos:    int32(base + pos + a - sec.Lo[last]),
					Proc:   int32(me),
					Off:    int32(dec.offsetIn(i, coords)),
					Stride: 1,
					Count:  int32(b - a),
				})
				work += b - a
			}
		}
	}
	ctx.P.ChargeSectionOps(work + set.Len()*dec.NumPatches())
	return out
}

// MaxLocalElems returns the largest share of points any rank stores.
func (Lib) MaxLocalElems(o core.DistObject) int {
	n := 0
	for _, local := range decOf(o).local {
		n = max(n, local)
	}
	return n
}

// EncodeDescriptor serializes the patch list; compact (patch counts
// are small even for deep AMR hierarchies).
func (Lib) EncodeDescriptor(ctx *core.Ctx, o core.DistObject) ([]byte, bool) {
	dec := decOf(o)
	var w codec.Writer
	w.PutInt32(int32(dec.nprocs))
	w.PutInt32(int32(len(dec.patches)))
	for _, pt := range dec.patches {
		w.PutInts(pt.Lo)
		w.PutInts(pt.Hi)
		w.PutInt32(int32(pt.Owner))
	}
	return w.Bytes(), true
}

// DecodeDescriptor rebuilds a descriptor-only view.
func (Lib) DecodeDescriptor(data []byte) (core.DistObject, error) {
	r := codec.NewReader(data)
	nprocs := int(r.Int32())
	n := int(r.Int32())
	patches := make([]Patch, n)
	for i := range patches {
		patches[i] = Patch{Lo: r.Ints(), Hi: r.Ints(), Owner: int(r.Int32())}
	}
	dec, err := NewDecomposition(nprocs, patches)
	if err != nil {
		return nil, fmt.Errorf("lparx: decoding descriptor: %w", err)
	}
	return &view{dec: dec}, nil
}

// EncodeRegion serializes a box region.
func (Lib) EncodeRegion(r core.Region) []byte {
	br, ok := r.(BoxRegion)
	if !ok {
		panic(fmt.Sprintf("lparx: encoding region of type %T", r))
	}
	var w codec.Writer
	w.PutInts(br.Lo)
	w.PutInts(br.Hi)
	return w.Bytes()
}

// DecodeRegion deserializes a box region.
func (Lib) DecodeRegion(data []byte) (core.Region, error) {
	r := codec.NewReader(data)
	return BoxRegion{Lo: r.Ints(), Hi: r.Ints()}, nil
}

// Interface checks.
var (
	_ core.Library         = Lib{}
	_ core.DescriptorCodec = Lib{}
	_ core.RegionCodec     = Lib{}
	_ core.LocalBounder    = Lib{}
	_ core.DistObject      = (*Grid)(nil)
)
