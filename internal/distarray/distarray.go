// Package distarray implements the regular distribution engine shared
// by the Multiblock Parti and HPF runtime analogues: multi-dimensional
// arrays partitioned over a process grid with HPF-style BLOCK or CYCLIC
// distribution per dimension, and the global-to-local index translation
// those libraries perform on every access.
package distarray

import (
	"fmt"

	"metachaos/internal/core"
	"metachaos/internal/gidx"
)

// Kind selects how one array dimension is split over one process-grid
// dimension.
type Kind int

const (
	// Block gives each process one contiguous chunk of ceil(n/p)
	// indices, HPF BLOCK semantics.
	Block Kind = iota
	// Cyclic deals indices round-robin, HPF CYCLIC(1) semantics.
	Cyclic
	// BlockCyclic deals fixed-size blocks round-robin, HPF CYCLIC(k)
	// and ScaLAPACK block-cyclic semantics; the block size comes from
	// the distribution's Params.
	BlockCyclic
)

func (k Kind) String() string {
	switch k {
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	case BlockCyclic:
		return "CYCLIC(k)"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dist is an immutable description of how a dense global index space is
// partitioned over a process grid.  It is pure arithmetic: the same
// descriptor is held by every process (and, under Meta-Chaos's
// "duplication" schedule method, by processes of other programs).
type Dist struct {
	shape gidx.Shape
	grid  []int
	kinds []Kind
	// blockSize[d] is ceil(shape[d]/grid[d]) for Block dims, the
	// CYCLIC(k) parameter for BlockCyclic dims, unused for Cyclic.
	blockSize []int
	// extents[d][g] is how many indices of dimension d grid coordinate
	// g owns: the tile extents, computed once because a Dist never
	// changes and every index translation needs them.
	extents [][]int
}

// NewDist validates and builds a distribution of shape over a process
// grid; len(grid) == len(shape) == len(kinds), and the number of
// processes is the product of grid extents.  BlockCyclic dimensions
// use a default block size of 1 (equivalent to Cyclic); use
// NewDistParams to set CYCLIC(k) block sizes.
func NewDist(shape gidx.Shape, grid []int, kinds []Kind) (*Dist, error) {
	return NewDistParams(shape, grid, kinds, nil)
}

// NewDistParams builds a distribution with per-dimension parameters:
// params[d] is the CYCLIC(k) block size for BlockCyclic dimensions
// (ignored for Block and Cyclic).  A nil params means block size 1
// everywhere.
func NewDistParams(shape gidx.Shape, grid []int, kinds []Kind, params []int) (*Dist, error) {
	if !shape.Valid() {
		return nil, fmt.Errorf("distarray: invalid shape %v", shape)
	}
	if len(grid) != len(shape) || len(kinds) != len(shape) {
		return nil, fmt.Errorf("distarray: shape rank %d, grid rank %d, kinds rank %d",
			len(shape), len(grid), len(kinds))
	}
	if params != nil && len(params) != len(shape) {
		return nil, fmt.Errorf("distarray: shape rank %d but %d params", len(shape), len(params))
	}
	for d, g := range grid {
		if g <= 0 {
			return nil, fmt.Errorf("distarray: grid extent %d in dim %d", g, d)
		}
		switch kinds[d] {
		case Block, Cyclic:
		case BlockCyclic:
			if params != nil && params[d] <= 0 {
				return nil, fmt.Errorf("distarray: CYCLIC(k) block size %d in dim %d", params[d], d)
			}
		default:
			return nil, fmt.Errorf("distarray: unknown kind %v in dim %d", kinds[d], d)
		}
	}
	dist := &Dist{
		shape:     append(gidx.Shape(nil), shape...),
		grid:      append([]int(nil), grid...),
		kinds:     append([]Kind(nil), kinds...),
		blockSize: make([]int, len(shape)),
	}
	for d := range shape {
		switch kinds[d] {
		case Block:
			dist.blockSize[d] = (shape[d] + grid[d] - 1) / grid[d]
		case BlockCyclic:
			dist.blockSize[d] = 1
			if params != nil {
				dist.blockSize[d] = params[d]
			}
		}
	}
	dist.extents = make([][]int, len(shape))
	for d := range shape {
		dist.extents[d] = make([]int, grid[d])
		for g := range dist.extents[d] {
			dist.extents[d][g] = dist.localCountDim(d, g)
		}
	}
	return dist, nil
}

// Params returns the per-dimension distribution parameters (CYCLIC(k)
// block sizes; meaningful only for BlockCyclic dimensions).  Like Shape
// and Grid, it returns the descriptor's own slice: callers must not
// modify it.
func (d *Dist) Params() []int { return d.blockSize }

// MustBlock2D is a convenience constructor for the common case in the
// paper's experiments: a 2-D array distributed (BLOCK, BLOCK) over a
// nearly-square grid of nprocs processes.
func MustBlock2D(rows, cols, nprocs int) *Dist {
	gr, gc := SquarishGrid(nprocs)
	d, err := NewDist(gidx.Shape{rows, cols}, []int{gr, gc}, []Kind{Block, Block})
	if err != nil {
		panic(err)
	}
	return d
}

// SquarishGrid factors n into two near-equal factors (gr <= gc).
func SquarishGrid(n int) (gr, gc int) {
	gr = 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			gr = f
		}
	}
	return gr, n / gr
}

// Shape returns the global shape.
func (d *Dist) Shape() gidx.Shape { return d.shape }

// Grid returns the process grid extents.
func (d *Dist) Grid() []int { return d.grid }

// Kinds returns the per-dimension distribution kinds.
func (d *Dist) Kinds() []Kind { return d.kinds }

// NProcs returns the number of processes the array is spread over.
func (d *Dist) NProcs() int {
	n := 1
	for _, g := range d.grid {
		n *= g
	}
	return n
}

// GridCoords returns the process-grid coordinates of rank (row-major
// rank ordering over the grid).
func (d *Dist) GridCoords(rank int) []int {
	return gidx.Shape(d.grid).Coords(rank, nil)
}

// localCountDim returns how many indices of dim d the grid coordinate g
// owns.
func (d *Dist) localCountDim(dim, g int) int {
	n, p := d.shape[dim], d.grid[dim]
	switch d.kinds[dim] {
	case Cyclic:
		if g >= n {
			return 0
		}
		return (n - g + p - 1) / p
	case BlockCyclic:
		b := d.blockSize[dim]
		fullCycles := n / (b * p)
		count := fullCycles * b
		rem := n - fullCycles*b*p // indices in the trailing partial cycle
		lo := g * b
		if rem > lo {
			extra := rem - lo
			if extra > b {
				extra = b
			}
			count += extra
		}
		return count
	}
	b := d.blockSize[dim]
	lo := g * b
	if lo >= n {
		return 0
	}
	hi := lo + b
	if hi > n {
		hi = n
	}
	return hi - lo
}

// Chunk locates global index c of dimension dim: the grid coordinate
// that owns it, its local index there, and the end of the stretch of
// global indices around c that the same coordinate stores contiguously
// (the block for BLOCK and CYCLIC(k), c alone for CYCLIC).  Walking a
// row chunk by chunk is how a regular section is dereferenced in runs.
func (d *Dist) Chunk(dim, c int) (owner, local, end int) {
	if c < 0 || c >= d.shape[dim] {
		panic(fmt.Sprintf("distarray: coord %d out of range in dim %d (extent %d)", c, dim, d.shape[dim]))
	}
	switch d.kinds[dim] {
	case Cyclic:
		return c % d.grid[dim], c / d.grid[dim], c + 1
	case BlockCyclic:
		b, p := d.blockSize[dim], d.grid[dim]
		blk := c / b
		return blk % p, blk/p*b + c%b, (blk + 1) * b
	}
	b := d.blockSize[dim]
	owner = c / b
	return owner, c - owner*b, (owner + 1) * b
}

// TileExtent returns how many indices of dimension dim grid coordinate
// g owns.
func (d *Dist) TileExtent(dim, g int) int { return d.extents[dim][g] }

// OwnerOf returns the rank owning the element at global coords.
func (d *Dist) OwnerOf(coords []int) int {
	rank := 0
	for dim, c := range coords {
		g, _, _ := d.Chunk(dim, c)
		rank = rank*d.grid[dim] + g
	}
	return rank
}

// LocalCounts returns the per-dimension extent of rank's local tile.
func (d *Dist) LocalCounts(rank int) []int {
	out := make([]int, len(d.shape))
	for dim := len(d.shape) - 1; dim >= 0; dim-- {
		out[dim] = d.extents[dim][rank%d.grid[dim]]
		rank /= d.grid[dim]
	}
	return out
}

// LocalSize returns the number of elements rank owns.
func (d *Dist) LocalSize(rank int) int {
	n := 1
	for dim := len(d.shape) - 1; dim >= 0; dim-- {
		n *= d.extents[dim][rank%d.grid[dim]]
		rank /= d.grid[dim]
	}
	return n
}

// Locate returns the owning rank and the row-major offset into that
// rank's local tile for the element at global coords.
func (d *Dist) Locate(coords []int) (rank, offset int) {
	for dim, c := range coords {
		g, local, _ := d.Chunk(dim, c)
		rank = rank*d.grid[dim] + g
		offset = offset*d.extents[dim][g] + local
	}
	return rank, offset
}

// LocalCoords returns the owning rank and per-dimension local tile
// coordinates of the element at global coords.
func (d *Dist) LocalCoords(coords []int, local []int) (rank int, out []int) {
	if local == nil {
		local = make([]int, len(coords))
	}
	for dim, c := range coords {
		var g int
		g, local[dim], _ = d.Chunk(dim, c)
		rank = rank*d.grid[dim] + g
	}
	return rank, local
}

// LocalBox returns the half-open global box owned by rank, which exists
// only when every dimension is Block-distributed; ok is false otherwise.
func (d *Dist) LocalBox(rank int) (lo, hi []int, ok bool) {
	for _, k := range d.kinds {
		if k != Block {
			return nil, nil, false
		}
	}
	g := d.GridCoords(rank)
	lo = make([]int, len(d.shape))
	hi = make([]int, len(d.shape))
	for dim := range d.shape {
		lo[dim] = g[dim] * d.blockSize[dim]
		hi[dim] = lo[dim] + d.blockSize[dim]
		if lo[dim] > d.shape[dim] {
			lo[dim] = d.shape[dim]
		}
		if hi[dim] > d.shape[dim] {
			hi[dim] = d.shape[dim]
		}
	}
	return lo, hi, true
}

// globalDim maps local index lc of grid coordinate g back to the global
// index of dimension dim, the inverse of Chunk.
func (d *Dist) globalDim(dim, g, lc int) int {
	switch d.kinds[dim] {
	case Cyclic:
		return g + lc*d.grid[dim]
	case BlockCyclic:
		b := d.blockSize[dim]
		return (lc/b*d.grid[dim]+g)*b + lc%b
	}
	return g*d.blockSize[dim] + lc
}

// EachOwned calls f with the local tile coordinates and the global
// coordinates of every element rank owns, in the tile's row-major
// storage order.  Both slices are reused between calls.
func (d *Dist) EachOwned(rank int, f func(local, coords []int)) {
	if d.LocalSize(rank) == 0 {
		return
	}
	g := d.GridCoords(rank)
	local := make([]int, len(g))
	coords := make([]int, len(g))
	for dim := range coords {
		coords[dim] = d.globalDim(dim, g[dim], 0)
	}
	for {
		f(local, coords)
		dim := len(local) - 1
		for ; dim >= 0; dim-- {
			local[dim]++
			if local[dim] < d.extents[dim][g[dim]] {
				break
			}
			local[dim] = 0
			coords[dim] = d.globalDim(dim, g[dim], 0)
		}
		if dim < 0 {
			return
		}
		coords[dim] = d.globalDim(dim, g[dim], local[dim])
	}
}

// Array is one process's portion of a distributed array: the shared
// distribution descriptor plus the local tile.  Tiles default to
// float64 elements; NewArrayTyped builds tiles of any core.ElemType.
type Array struct {
	dist  *Dist
	rank  int
	mem   core.Mem
	local []float64 // float64 alias of mem (nil for other element kinds)
}

// NewArray allocates rank's tile of a distributed array of float64.
func NewArray(dist *Dist, rank int) *Array {
	return NewArrayTyped(dist, rank, core.Float64)
}

// NewArrayTyped allocates rank's tile of a distributed array whose
// elements have type et.
func NewArrayTyped(dist *Dist, rank int, et core.ElemType) *Array {
	if rank < 0 || rank >= dist.NProcs() {
		panic(fmt.Sprintf("distarray: rank %d outside distribution over %d procs", rank, dist.NProcs()))
	}
	a := &Array{dist: dist, rank: rank, mem: core.MakeMem(et, dist.LocalSize(rank))}
	a.local = a.mem.Float64s()
	return a
}

// Dist returns the distribution descriptor.
func (a *Array) Dist() *Dist { return a.dist }

// Elem returns the array's element type.
func (a *Array) Elem() core.ElemType { return a.mem.Elem() }

// LocalMem returns the local tile storage in row-major order.
func (a *Array) LocalMem() core.Mem { return a.mem }

// Local returns the local tile of a float64 array in row-major order;
// it is nil for other element kinds (use LocalMem).
func (a *Array) Local() []float64 { return a.local }

// unitOf locates the first storage unit of the element at global
// coords, which must be owned locally.
func (a *Array) unitOf(coords []int) int {
	rank, off := a.dist.Locate(coords)
	if rank != a.rank {
		panic(fmt.Sprintf("distarray: rank %d addressing element %v owned by rank %d", a.rank, coords, rank))
	}
	return off * a.mem.Elem().Words
}

// Get reads the element at global coords (its first scalar, converted
// to float64), which must be owned locally.
func (a *Array) Get(coords []int) float64 {
	return a.mem.GetF(a.unitOf(coords))
}

// FillGlobal sets every locally owned element to f(globalCoords),
// letting tests and examples initialize a distributed array from a
// global definition without communication.  Multi-word elements have
// every scalar set to the same value.
func (a *Array) FillGlobal(f func(coords []int) float64) {
	w := a.mem.Elem().Words
	off := 0
	a.dist.EachOwned(a.rank, func(_, coords []int) {
		v := f(coords)
		for j := 0; j < w; j++ {
			a.mem.SetF(off+j, v)
		}
		off += w
	})
}
