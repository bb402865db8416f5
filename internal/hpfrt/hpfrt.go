// Package hpfrt is the HPF runtime-library analogue: BLOCK/CYCLIC
// distributed arrays with Fortran-90 array-section regions, plus the
// distributed matrix-vector multiply the paper's computational server
// runs.  Like the real HPF runtime it shares the regular-section
// dereference machinery (seclib) and joins Meta-Chaos through it.
package hpfrt

import (
	"fmt"

	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/mpsim"
	"metachaos/internal/seclib"
)

// Library is the Meta-Chaos binding for HPF arrays.
var Library = seclib.New("hpf")

func init() { core.RegisterLibrary(Library) }

// Array is one process's portion of an HPF distributed array (no
// ghost cells; HPF's runtime communicates through schedules instead).
type Array struct {
	*distarray.Array
}

// NewArray allocates rank's tile of a float64 array.
func NewArray(dist *distarray.Dist, rank int) *Array {
	return &Array{Array: distarray.NewArray(dist, rank)}
}

// SecDist exposes the distribution for seclib.
func (a *Array) SecDist() *distarray.Dist { return a.Dist() }

// Halo is always zero for HPF arrays.
func (a *Array) Halo() int { return 0 }

// RowBlockMatrix builds the distribution HPF's matvec server uses for
// its matrix: rows in blocks over all processes, columns collapsed.
func RowBlockMatrix(rows, cols, nprocs int) *distarray.Dist {
	d, err := distarray.NewDist(gidx.Shape{rows, cols}, []int{nprocs, 1},
		[]distarray.Kind{distarray.Block, distarray.Block})
	if err != nil {
		panic(err)
	}
	return d
}

// BlockVector builds a 1-D BLOCK distribution.
func BlockVector(n, nprocs int) *distarray.Dist {
	d, err := distarray.NewDist(gidx.Shape{n}, []int{nprocs}, []distarray.Kind{distarray.Block})
	if err != nil {
		panic(err)
	}
	return d
}

// MatVec computes y = A·x collectively: A row-block distributed, x and
// y BLOCK vectors over the same processes with matching block
// boundaries.  The operand vector is allgathered (the internal
// communication that, in the paper, stops the HPF server from speeding
// up past eight processes) and each process multiplies its row block.
func MatVec(ctx *core.Ctx, a *Array, x *Array, y *Array) error {
	p, comm := ctx.P, ctx.Comm
	ashape := a.Dist().Shape()
	if len(ashape) != 2 {
		return fmt.Errorf("hpfrt: MatVec matrix must be 2-D, got %d-D", len(ashape))
	}
	xshape := x.Dist().Shape()
	yshape := y.Dist().Shape()
	if len(xshape) != 1 || len(yshape) != 1 {
		return fmt.Errorf("hpfrt: MatVec vectors must be 1-D")
	}
	rows, cols := ashape[0], ashape[1]
	if xshape[0] != cols {
		return fmt.Errorf("hpfrt: matrix has %d columns but x has %d elements", cols, xshape[0])
	}
	if yshape[0] != rows {
		return fmt.Errorf("hpfrt: matrix has %d rows but y has %d elements", rows, yshape[0])
	}

	// Allgather the operand vector.
	xv := gatherVector(p, comm, x)

	// Multiply my row block.
	me := comm.Rank()
	lo, hi, ok := a.Dist().LocalBox(me)
	if !ok || a.Dist().Grid()[1] != 1 {
		return fmt.Errorf("hpfrt: MatVec requires a row-block matrix (use RowBlockMatrix)")
	}
	local := a.Local()
	ylo, yhi, ok := y.Dist().LocalBox(me)
	if !ok {
		return fmt.Errorf("hpfrt: MatVec requires a BLOCK result vector")
	}
	if ylo[0] != lo[0] || yhi[0] != hi[0] {
		return fmt.Errorf("hpfrt: result vector blocks [%d,%d) do not match matrix row blocks [%d,%d)",
			ylo[0], yhi[0], lo[0], hi[0])
	}
	yl := y.Local()
	for r := lo[0]; r < hi[0]; r++ {
		row := local[(r-lo[0])*cols : (r-lo[0]+1)*cols]
		s := 0.0
		for c, v := range row {
			s += v * xv[c]
		}
		yl[r-lo[0]] = s
	}
	p.ChargeFlops(2 * (hi[0] - lo[0]) * cols)
	return nil
}

// gatherVector assembles the full contents of a BLOCK vector on every
// process.
func gatherVector(p *mpsim.Proc, comm *mpsim.Comm, x *Array) []float64 {
	n := x.Dist().Shape()[0]
	out := make([]float64, n)
	parts := comm.Allgather(codec.Float64sToBytes(x.Local()))
	off := 0
	for _, part := range parts {
		vals := codec.BytesToFloat64s(part)
		copy(out[off:], vals)
		off += len(vals)
	}
	p.ChargeMemOps(n)
	return out
}

// Interface checks.
var (
	_ core.DistObject = (*Array)(nil)
	_ seclib.Object   = (*Array)(nil)
)
