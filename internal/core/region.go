// Package core implements Meta-Chaos, the paper's primary contribution:
// a framework that lets data-parallel runtime libraries exchange
// distributed data through a small set of inquiry functions each
// library exports.  The key concept is the virtual linearization: a
// total order over the elements of a SetOfRegions that exists only as
// an abstraction — no storage is ever allocated for it — and defines
// the implicit mapping between a source and a destination SetOfRegions
// of equal size.
//
// The package provides the Region/SetOfRegions data-specification
// machinery, the Library interface a data-parallel library implements
// to join the framework, communication-schedule computation with the
// paper's two methods (cooperation and duplication), and the schedule
// executor that moves data with one aggregated message per processor
// pair.
package core

import "fmt"

// Region describes a group of elements of one distributed data
// structure in global terms, in a library-specific way: a regularly
// distributed array section for HPF and Multiblock Parti, a set of
// global indices for Chaos.  A Region knows how many elements it holds;
// its linearization order is defined by the owning library.
type Region interface {
	// Size returns the number of elements in the region.
	Size() int
}

// SetOfRegions is an ordered group of Regions.  Its linearization is
// the concatenation of the linearizations of its regions, in order.
type SetOfRegions struct {
	regions []Region
	// base[i] is the linearization position of the first element of
	// region i; base[len(regions)] is the total size.
	base []int
}

// NewSetOfRegions builds a set from the given regions, in order.
func NewSetOfRegions(regions ...Region) *SetOfRegions {
	s := &SetOfRegions{}
	for _, r := range regions {
		s.Add(r)
	}
	return s
}

// Add appends a region to the set.
func (s *SetOfRegions) Add(r Region) {
	if r == nil {
		panic("core: nil region added to SetOfRegions")
	}
	if len(s.base) == 0 {
		s.base = []int{0}
	}
	s.regions = append(s.regions, r)
	s.base = append(s.base, s.base[len(s.base)-1]+r.Size())
}

// Len returns the number of regions in the set.
func (s *SetOfRegions) Len() int { return len(s.regions) }

// Region returns the i-th region.
func (s *SetOfRegions) Region(i int) Region { return s.regions[i] }

// Size returns the total number of elements across all regions.
func (s *SetOfRegions) Size() int {
	if len(s.base) == 0 {
		return 0
	}
	return s.base[len(s.base)-1]
}

// Base returns the linearization position of the first element of
// region i.
func (s *SetOfRegions) Base(i int) int { return s.base[i] }

// Span is a contiguous range of one region's linearization produced by
// splitting a set-level position range (see SpanAt): positions [Lo, Hi)
// of region Index, whose set-level positions start at Base+Lo.
type Span struct {
	Index  int
	Lo, Hi int
	Base   int
}

// SpanAt returns the first per-region span of the set-level position
// range [lo, hi): the part of it inside the region holding position lo.
// A caller walks a range without allocating by resuming at
// span.Base+span.Hi until it reaches hi.
func (s *SetOfRegions) SpanAt(lo, hi int) Span {
	i, inner := s.RegionOf(lo)
	return Span{Index: i, Lo: inner, Hi: min(hi, s.base[i+1]) - s.base[i], Base: s.base[i]}
}

// RegionOf maps a set-level position to (region index, position within
// region) by walking the base table.
func (s *SetOfRegions) RegionOf(pos int) (index, inner int) {
	if pos < 0 || pos >= s.Size() {
		panic(fmt.Sprintf("core: position %d outside set of %d elements", pos, s.Size()))
	}
	// Binary search over base.
	lo, hi := 0, len(s.regions)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.base[mid] <= pos {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, pos - s.base[lo]
}

// DistObject is one process's handle on a distributed data structure:
// the element geometry plus this process's local element storage.
// Elements are fixed-size groups of scalars described by an ElemType —
// the paper's arrays of doubles (ElemType{KindFloat64, 1}), pC++-style
// multi-word element objects, and float32/int64/int32/byte data alike.
type DistObject interface {
	// Elem returns the element type.
	Elem() ElemType
	// LocalMem returns the calling process's local element storage, of
	// Elem().Words scalar units per locally owned element.
	// Descriptor-only remote views return a nil Mem (IsNil true).
	LocalMem() Mem
}
