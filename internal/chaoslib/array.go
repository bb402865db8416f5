package chaoslib

import (
	"fmt"

	"metachaos/internal/core"
)

// Array is one process's portion of an irregularly distributed array.
// The distribution is recorded in a translation table; several arrays
// may share one table (the paper's x and y node arrays have the same
// distribution).  Arrays default to float64 elements; NewArrayTyped
// builds arrays of any core.ElemType, which move through Meta-Chaos
// schedules like any other but are not usable with the float64-native
// localize/gather/scatter helpers.
type Array struct {
	tt      *TTable
	indices []int32 // global index of each local element, in storage order
	mem     core.Mem
	data    []float64 // float64 alias of mem (nil for other element kinds)
}

// NewArray builds an irregular float64 array owning the listed global
// indices (in local storage order), constructing a fresh translation
// table.  Collective over ctx.Comm.
func NewArray(ctx *core.Ctx, indices []int32) (*Array, error) {
	return NewArrayTyped(ctx, indices, core.Float64)
}

// NewArrayTyped is NewArray for an arbitrary element type.
func NewArrayTyped(ctx *core.Ctx, indices []int32, et core.ElemType) (*Array, error) {
	tt, err := BuildTTable(ctx, indices, nil)
	if err != nil {
		return nil, err
	}
	a := &Array{
		tt:      tt,
		indices: append([]int32(nil), indices...),
		mem:     core.MakeMem(et, len(indices)),
	}
	a.data = a.mem.Float64s()
	return a, nil
}

// NewAligned builds a float64 array with the same distribution as a,
// sharing its translation table.  Purely local.
func NewAligned(a *Array) *Array { return NewAlignedTyped(a, core.Float64) }

// NewAlignedTyped is NewAligned for an arbitrary element type.
func NewAlignedTyped(a *Array, et core.ElemType) *Array {
	out := &Array{
		tt:      a.tt,
		indices: a.indices,
		mem:     core.MakeMem(et, len(a.indices)),
	}
	out.data = out.mem.Float64s()
	return out
}

// Table returns the array's translation table.
func (a *Array) Table() *TTable { return a.tt }

// Indices returns the global indices of the local elements, in storage
// order.
func (a *Array) Indices() []int32 { return a.indices }

// Elem returns the array's element type.
func (a *Array) Elem() core.ElemType { return a.mem.Elem() }

// LocalMem returns the local element storage.
func (a *Array) LocalMem() core.Mem { return a.mem }

// Local returns the local storage of a float64 array; it is nil for
// other element kinds (use LocalMem).
func (a *Array) Local() []float64 { return a.data }

// GetLocal reads local slot k (its first scalar, converted to
// float64).
func (a *Array) GetLocal(k int) float64 { return a.mem.GetF(k * a.mem.Elem().Words) }

// FillGlobal sets each local element to f(globalIndex); multi-word
// elements have every scalar set.
func (a *Array) FillGlobal(f func(g int32) float64) {
	w := a.mem.Elem().Words
	for k, g := range a.indices {
		v := f(g)
		for j := 0; j < w; j++ {
			a.mem.SetF(k*w+j, v)
		}
	}
}

// view is a descriptor-only remote image of an irregular array.  The
// replicated translation table is the whole descriptor, so a view
// reports the default float64 element type; views dereference but
// never carry or receive data, so the type is never consulted.
type view struct {
	tt *TTable
}

func (v *view) Elem() core.ElemType { return core.Float64 }
func (v *view) LocalMem() core.Mem  { return core.NilMem(core.Float64) }
func (v *view) table() *TTable      { return v.tt }
func (a *Array) table() *TTable     { return a.tt }

// tabled is satisfied by both real arrays and remote views.
type tabled interface {
	core.DistObject
	table() *TTable
}

func tableOf(o core.DistObject) *TTable {
	tb, ok := o.(tabled)
	if !ok {
		panic(fmt.Sprintf("chaoslib: object of type %T is not a CHAOS array", o))
	}
	return tb.table()
}
