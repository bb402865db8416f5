// Package mbparti is the Multiblock Parti analogue: a runtime library
// for regularly block-distributed (multiblock) arrays with ghost-cell
// halos, regular-section communication schedules built by box
// intersection, and ghost exchange for stencil sweeps.  It implements
// the Meta-Chaos inquiry interface (via seclib) with regular array
// sections as its Region type.
package mbparti

import (
	"fmt"

	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/seclib"
)

// Library is the Meta-Chaos binding for Multiblock Parti arrays.
var Library = seclib.New("mbparti")

func init() { core.RegisterLibrary(Library) }

// Array is one process's portion of a block-distributed array with a
// ghost-cell halo of uniform width.  The local tile is stored
// row-major with the halo margins included, so an interior element's
// neighbours are addressable even when owned remotely (after a ghost
// exchange).  Tiles default to float64 elements; NewArrayTyped builds
// tiles of any core.ElemType, which move through Meta-Chaos schedules
// like any other but are not usable with the float64-native stencil
// and ghost-exchange helpers.
type Array struct {
	dist   *distarray.Dist
	rank   int
	halo   int
	counts []int // interior extents of the local tile
	gshape []int // padded extents (counts + 2*halo)
	mem    core.Mem
	data   []float64 // float64 alias of mem (nil for other element kinds)
}

// NewArray allocates rank's halo-padded tile of a distributed array of
// float64.  Halo must be non-negative; distributions with a halo must
// be Block in every dimension (ghost regions of cyclic distributions
// are not meaningful).
func NewArray(dist *distarray.Dist, rank, halo int) (*Array, error) {
	return NewArrayTyped(dist, rank, halo, core.Float64)
}

// NewArrayTyped is NewArray for an arbitrary element type.
func NewArrayTyped(dist *distarray.Dist, rank, halo int, et core.ElemType) (*Array, error) {
	if halo < 0 {
		return nil, fmt.Errorf("mbparti: negative halo %d", halo)
	}
	if halo > 0 {
		if _, _, ok := dist.LocalBox(rank); !ok {
			return nil, fmt.Errorf("mbparti: halo requires Block distribution in every dimension")
		}
	}
	a := &Array{dist: dist, rank: rank, halo: halo, counts: dist.LocalCounts(rank)}
	size := 1
	for _, c := range a.counts {
		a.gshape = append(a.gshape, c+2*halo)
		size *= c + 2*halo
	}
	a.mem = core.MakeMem(et, size)
	a.data = a.mem.Float64s()
	return a, nil
}

// MustNewArray is NewArray for static configurations known to be valid.
func MustNewArray(dist *distarray.Dist, rank, halo int) *Array {
	a, err := NewArray(dist, rank, halo)
	if err != nil {
		panic(err)
	}
	return a
}

// Dist returns the distribution descriptor.
func (a *Array) Dist() *distarray.Dist { return a.dist }

// Rank returns the owning process's program rank.
func (a *Array) Rank() int { return a.rank }

// Elem returns the array's element type.
func (a *Array) Elem() core.ElemType { return a.mem.Elem() }

// LocalMem returns the halo-padded local tile storage.
func (a *Array) LocalMem() core.Mem { return a.mem }

// Local returns the halo-padded local tile of a float64 array; it is
// nil for other element kinds (use LocalMem).
func (a *Array) Local() []float64 { return a.data }

// SecDist exposes the distribution for seclib.
func (a *Array) SecDist() *distarray.Dist { return a.dist }

// Halo returns the ghost margin width.
func (a *Array) Halo() int { return a.halo }

// offsetLocal converts interior local coordinates (which may extend
// into the halo by up to halo cells) to a storage offset.
func (a *Array) offsetLocal(local []int) int {
	off := 0
	for d, lc := range local {
		p := lc + a.halo
		if p < 0 || p >= a.gshape[d] {
			panic(fmt.Sprintf("mbparti: local coordinate %d outside padded tile (dim %d, extent %d, halo %d)",
				lc, d, a.counts[d], a.halo))
		}
		off = off*a.gshape[d] + p
	}
	return off
}

// OffsetOf returns the storage offset of the element at global coords,
// which must be owned locally.
func (a *Array) OffsetOf(global []int) int {
	rank, off := 0, 0
	for d, c := range global {
		g, local, _ := a.dist.Chunk(d, c)
		rank = rank*a.dist.Grid()[d] + g
		off = off*a.gshape[d] + local + a.halo
	}
	if rank != a.rank {
		panic(fmt.Sprintf("mbparti: rank %d addressing element %v owned by rank %d", a.rank, global, rank))
	}
	return off
}

// Get reads a locally owned element (its first scalar, converted to
// float64) by global coordinates.
func (a *Array) Get(global []int) float64 {
	return a.mem.GetF(a.OffsetOf(global) * a.mem.Elem().Words)
}

// Set writes a locally owned element (its first scalar, converted from
// float64) by global coordinates.
func (a *Array) Set(global []int, v float64) {
	a.mem.SetF(a.OffsetOf(global)*a.mem.Elem().Words, v)
}

// GetPadded reads by local coordinates that may reach into the halo,
// for stencil code after a ghost exchange.
func (a *Array) GetPadded(local []int) float64 {
	return a.mem.GetF(a.offsetLocal(local) * a.mem.Elem().Words)
}

// FillGlobal sets every locally owned interior element to
// f(globalCoords); multi-word elements have every scalar set.
func (a *Array) FillGlobal(f func(coords []int) float64) {
	w := a.mem.Elem().Words
	a.dist.EachOwned(a.rank, func(local, coords []int) {
		v := f(coords)
		off := a.offsetLocal(local) * w
		for j := 0; j < w; j++ {
			a.mem.SetF(off+j, v)
		}
	})
}

// incr advances local coordinates row-major; it reports false after
// the last coordinate.
func incr(local, counts []int) bool {
	for d := len(local) - 1; d >= 0; d-- {
		local[d]++
		if local[d] < counts[d] {
			return true
		}
		local[d] = 0
	}
	return false
}

// Interface checks.
var (
	_ core.DistObject      = (*Array)(nil)
	_ seclib.Object        = (*Array)(nil)
	_ core.Library         = Library
	_ core.DescriptorCodec = Library
	_ core.RegionCodec     = Library
)
