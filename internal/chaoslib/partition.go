package chaoslib

import (
	"fmt"
	"sort"
)

// Geometric partitioning: the companion step to Remap.  CHAOS-era
// irregular applications partitioned their meshes with coordinate
// bisection before remapping the node data onto the new owners; this
// file provides the classic recursive coordinate bisection (RCB)
// partitioner over replicated coordinate arrays, as the moderate-size
// meshes of the period were partitioned.

// RCB assigns each of the points (coordinate column per dimension) to
// one of nparts parts by recursive coordinate bisection: the point set
// is split at the median of its widest dimension into two subsets
// whose sizes are proportional to the parts assigned to each side,
// recursively.  All columns must have equal length.  The result maps
// point index to part number, with part sizes balanced within one
// point.
func RCB(coords [][]float64, nparts int) ([]int, error) {
	if len(coords) == 0 {
		return nil, fmt.Errorf("chaoslib: RCB needs at least one coordinate dimension")
	}
	n := len(coords[0])
	for d, c := range coords {
		if len(c) != n {
			return nil, fmt.Errorf("chaoslib: RCB coordinate dimension %d has %d points, dimension 0 has %d", d, len(c), n)
		}
	}
	if nparts <= 0 {
		return nil, fmt.Errorf("chaoslib: RCB with %d parts", nparts)
	}
	if nparts > n && n > 0 {
		return nil, fmt.Errorf("chaoslib: RCB of %d points into %d parts", n, nparts)
	}
	assign := make([]int, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rcbSplit(coords, idx, 0, nparts, assign)
	return assign, nil
}

// rcbSplit assigns parts [base, base+nparts) to the points in idx.
func rcbSplit(coords [][]float64, idx []int, base, nparts int, assign []int) {
	if nparts == 1 {
		for _, i := range idx {
			assign[i] = base
		}
		return
	}
	// Pick the widest dimension of this subset.
	best, bestSpread := 0, -1.0
	for d := range coords {
		lo, hi := coords[d][idx[0]], coords[d][idx[0]]
		for _, i := range idx {
			v := coords[d][i]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if spread := hi - lo; spread > bestSpread {
			best, bestSpread = d, spread
		}
	}
	// Sort this subset along the chosen dimension (ties broken by
	// index for determinism) and split proportionally to the part
	// counts on each side.
	sort.Slice(idx, func(a, b int) bool {
		va, vb := coords[best][idx[a]], coords[best][idx[b]]
		if va != vb {
			return va < vb
		}
		return idx[a] < idx[b]
	})
	leftParts := nparts / 2
	cut := len(idx) * leftParts / nparts
	rcbSplit(coords, idx[:cut], base, leftParts, assign)
	rcbSplit(coords, idx[cut:], base+leftParts, nparts-leftParts, assign)
}

// PartIndices extracts, in ascending order, the point indices assigned
// to one part — the owner list to hand to NewArray or Remap.
func PartIndices(assign []int, part int) []int32 {
	var out []int32
	for i, p := range assign {
		if p == part {
			out = append(out, int32(i))
		}
	}
	return out
}
