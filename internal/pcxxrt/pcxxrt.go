// Package pcxxrt is the pC++/Tulip runtime analogue: distributed
// collections of fixed-size element objects dealt round-robin over the
// processes of a program.  It exists to demonstrate the Meta-Chaos
// extensibility claim — a fourth library, with its own Region type
// (index ranges over a collection) and a multi-word element layout,
// joins the framework by supplying only the inquiry functions, just as
// the Indiana pC++ group did in a few days.
package pcxxrt

import (
	"fmt"

	"metachaos/internal/codec"
	"metachaos/internal/core"
)

// Library is the Meta-Chaos binding for pC++ collections.
var Library = Lib{}

func init() { core.RegisterLibrary(Library) }

// Collection is one process's portion of a distributed collection of n
// fixed-size element objects placed round-robin: element i lives on
// process i mod P at local slot i div P.  Element objects default to
// multi-word float64 records; NewCollectionTyped builds collections of
// any core.ElemType.
type Collection struct {
	n      int
	nprocs int
	rank   int // -1 for descriptor-only remote views
	mem    core.Mem
	data   []float64 // float64 alias of mem (nil for other element kinds)
}

// NewCollection allocates rank's share of an n-element collection of
// elemWords-float64 element objects.
func NewCollection(n, nprocs, elemWords, rank int) (*Collection, error) {
	return NewCollectionTyped(n, nprocs, core.Float64Elems(elemWords), rank)
}

// NewCollectionTyped is NewCollection for an arbitrary element type.
func NewCollectionTyped(n, nprocs int, et core.ElemType, rank int) (*Collection, error) {
	if n <= 0 || nprocs <= 0 || et.Words <= 0 {
		return nil, fmt.Errorf("pcxxrt: invalid collection n=%d procs=%d elem=%v", n, nprocs, et)
	}
	if rank < 0 || rank >= nprocs {
		return nil, fmt.Errorf("pcxxrt: rank %d outside [0,%d)", rank, nprocs)
	}
	c := &Collection{n: n, nprocs: nprocs, rank: rank}
	c.mem = core.MakeMem(et, c.localCount(rank))
	c.data = c.mem.Float64s()
	return c, nil
}

// Elem returns the collection's element type.
func (c *Collection) Elem() core.ElemType { return c.mem.Elem() }

// LocalMem returns the local element storage.
func (c *Collection) LocalMem() core.Mem { return c.mem }

// Local returns the local storage of a float64 collection; it is nil
// for other element kinds (use LocalMem).
func (c *Collection) Local() []float64 { return c.data }

func (c *Collection) localCount(rank int) int {
	if rank >= c.n {
		return 0
	}
	return (c.n - rank + c.nprocs - 1) / c.nprocs
}

// Owner returns the process owning element i.
func (c *Collection) Owner(i int) int { return i % c.nprocs }

// Slot returns element i's local slot on its owner.
func (c *Collection) Slot(i int) int { return i / c.nprocs }

// ForEachOwned iterates the locally owned elements of a float64
// collection, passing the global element index and its storage.
func (c *Collection) ForEachOwned(f func(i int, elem []float64)) {
	w := c.mem.Elem().Words
	for k := 0; k*c.nprocs+c.rank < c.n; k++ {
		i := k*c.nprocs + c.rank
		f(i, c.data[k*w:(k+1)*w])
	}
}

// RangeRegion is pC++'s Region type: a strided range of collection
// element indices [Lo, Hi) step Step, linearized in index order.
type RangeRegion struct {
	Lo, Hi, Step int
}

// Size returns the number of elements in the range.
func (r RangeRegion) Size() int {
	if r.Hi <= r.Lo || r.Step <= 0 {
		return 0
	}
	return (r.Hi - r.Lo + r.Step - 1) / r.Step
}

// At returns the global element index of the k-th range position.
func (r RangeRegion) At(k int) int { return r.Lo + k*r.Step }

// Lib implements the Meta-Chaos inquiry interface for collections.
type Lib struct{}

// Name returns the registry name.
func (Lib) Name() string { return "pcxx" }

func coll(o core.DistObject) *Collection {
	c, ok := o.(*Collection)
	if !ok {
		panic(fmt.Sprintf("pcxx: object of type %T is not a collection", o))
	}
	return c
}

func reg(set *core.SetOfRegions, i int) RangeRegion {
	r, ok := set.Region(i).(RangeRegion)
	if !ok {
		panic(fmt.Sprintf("pcxx: region %d has type %T, want RangeRegion", i, set.Region(i)))
	}
	return r
}

// DerefRange appends the locations of set positions [lo, hi).
func (l Lib) DerefRange(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, lo, hi int, out []core.LocRun) []core.LocRun {
	return l.DerefAt(ctx, o, set, []core.PosRange{{Lo: int32(lo), Hi: int32(hi)}}, out)
}

// DerefAt appends the locations of the positions in the given
// intervals: pure round-robin arithmetic.  A range whose step is a
// multiple of the process count keeps every element on one process, one
// strided run per span; any other step deals consecutive positions to
// different processes, one singleton each.
func (Lib) DerefAt(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, at []core.PosRange, out []core.LocRun) []core.LocRun {
	c := coll(o)
	for _, iv := range at {
		for lo, hi := int(iv.Lo), int(iv.Hi); lo < hi; {
			span := set.SpanAt(lo, hi)
			r := reg(set, span.Index)
			if r.Step%c.nprocs == 0 {
				i := r.At(span.Lo)
				out = append(out, core.LocRun{Pos: int32(span.Base + span.Lo), Proc: int32(c.Owner(i)),
					Off: int32(c.Slot(i)), Stride: int32(r.Step / c.nprocs), Count: int32(span.Hi - span.Lo)})
			} else {
				for k := span.Lo; k < span.Hi; k++ {
					i := r.At(k)
					out = append(out, core.LocRun{Pos: int32(span.Base + k), Proc: int32(c.Owner(i)), Off: int32(c.Slot(i)), Count: 1})
				}
			}
			lo = span.Base + span.Hi
		}
	}
	ctx.P.ChargeSectionOps(core.RangesLen(at))
	return out
}

// OwnedPositions walks each range's residue class owned by the caller:
// a whole range when its step is a multiple of the process count,
// otherwise positions no two of which are adjacent.
func (Lib) OwnedPositions(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, out []core.LocRun) []core.LocRun {
	c := coll(o)
	work := 0
	for ri := 0; ri < set.Len(); ri++ {
		r := reg(set, ri)
		base := set.Base(ri)
		size := r.Size()
		work += size
		if r.Step%c.nprocs == 0 {
			if size > 0 && c.Owner(r.Lo) == c.rank {
				out = append(out, core.LocRun{Pos: int32(base), Proc: int32(c.rank),
					Off: int32(c.Slot(r.Lo)), Stride: int32(r.Step / c.nprocs), Count: int32(size)})
			}
			continue
		}
		for k := 0; k < size; k++ {
			if i := r.At(k); c.Owner(i) == c.rank {
				out = append(out, core.LocRun{Pos: int32(base + k), Proc: int32(c.rank), Off: int32(c.Slot(i)), Count: 1})
			}
		}
	}
	ctx.P.ChargeSectionOps(work)
	return out
}

// EncodeDescriptor serializes (n, nprocs, element type); compact.  The
// element type packs into the slot that used to carry a bare float64
// word count, so float64 descriptors are byte-identical to the legacy
// format.
func (Lib) EncodeDescriptor(ctx *core.Ctx, o core.DistObject) ([]byte, bool) {
	c := coll(o)
	var w codec.Writer
	w.PutInts([]int{c.n, c.nprocs, int(core.PackElem(c.mem.Elem()))})
	return w.Bytes(), true
}

// DecodeDescriptor rebuilds a descriptor-only remote view.
func (Lib) DecodeDescriptor(data []byte) (core.DistObject, error) {
	v := codec.NewReader(data).Ints()
	if len(v) != 3 {
		return nil, fmt.Errorf("pcxx: corrupt descriptor")
	}
	et := core.UnpackElem(int32(v[2]))
	return &Collection{n: v[0], nprocs: v[1], rank: -1, mem: core.NilMem(et)}, nil
}

// EncodeRegion serializes a range region.
func (Lib) EncodeRegion(r core.Region) []byte {
	rr, ok := r.(RangeRegion)
	if !ok {
		panic(fmt.Sprintf("pcxx: encoding region of type %T", r))
	}
	var w codec.Writer
	w.PutInts([]int{rr.Lo, rr.Hi, rr.Step})
	return w.Bytes()
}

// DecodeRegion deserializes a range region.
func (Lib) DecodeRegion(data []byte) (core.Region, error) {
	v := codec.NewReader(data).Ints()
	if len(v) != 3 {
		return nil, fmt.Errorf("pcxx: corrupt region")
	}
	return RangeRegion{Lo: v[0], Hi: v[1], Step: v[2]}, nil
}

// Interface checks.
var (
	_ core.Library         = Lib{}
	_ core.DescriptorCodec = Lib{}
	_ core.RegionCodec     = Lib{}
	_ core.DistObject      = (*Collection)(nil)
)
