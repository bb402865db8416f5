// Package gidx provides the global-index arithmetic shared by every
// data-parallel runtime library in this repository: dense shapes with
// row-major linearization, and strided rectangular sections (the
// HPF/Fortran-90 "lo:hi:step" array sections that Multiblock Parti and
// the HPF runtime use as their Region type).
//
// Sections use half-open bounds: the points of dimension d are
// Lo[d], Lo[d]+Step[d], ... strictly below Hi[d].  All linearizations
// are row-major (last dimension fastest), matching the paper's C-style
// layout discussion.
package gidx

import (
	"fmt"
	"strings"
)

// Shape is the extent of a dense multi-dimensional array.
type Shape []int

// Valid reports whether every extent is positive.
func (s Shape) Valid() bool {
	if len(s) == 0 {
		return false
	}
	for _, n := range s {
		if n <= 0 {
			return false
		}
	}
	return true
}

// Size returns the total number of elements.
func (s Shape) Size() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Linear returns the row-major linear index of coords.
func (s Shape) Linear(coords []int) int {
	if len(coords) != len(s) {
		panic(fmt.Sprintf("gidx: %d coords for %d-d shape", len(coords), len(s)))
	}
	lin := 0
	for d, c := range coords {
		if c < 0 || c >= s[d] {
			panic(fmt.Sprintf("gidx: coord %d out of range [0,%d) in dim %d", c, s[d], d))
		}
		lin = lin*s[d] + c
	}
	return lin
}

// Coords fills out with the coordinates of linear index lin and
// returns it; a nil out allocates.
func (s Shape) Coords(lin int, out []int) []int {
	if lin < 0 || lin >= s.Size() {
		panic(fmt.Sprintf("gidx: linear index %d out of range [0,%d)", lin, s.Size()))
	}
	if out == nil {
		out = make([]int, len(s))
	}
	for d := len(s) - 1; d >= 0; d-- {
		out[d] = lin % s[d]
		lin /= s[d]
	}
	return out
}

// String renders the shape as "[4 8]".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Section is a strided rectangular subset of a dense index space:
// per dimension the points Lo, Lo+Step, ... < Hi.
type Section struct {
	Lo, Hi, Step []int
}

// NewSection builds a unit-stride section covering [lo, hi) in every
// dimension.
func NewSection(lo, hi []int) Section {
	step := make([]int, len(lo))
	for i := range step {
		step[i] = 1
	}
	return Section{Lo: append([]int(nil), lo...), Hi: append([]int(nil), hi...), Step: step}
}

// FullSection covers an entire shape with unit stride.
func FullSection(s Shape) Section {
	lo := make([]int, len(s))
	hi := append([]int(nil), s...)
	return NewSection(lo, hi)
}

// Rank returns the section's dimensionality.
func (s Section) Rank() int { return len(s.Lo) }

// Validate checks internal consistency and containment within shape.
func (s Section) Validate(shape Shape) error {
	if len(s.Lo) != len(shape) || len(s.Hi) != len(shape) || len(s.Step) != len(shape) {
		return fmt.Errorf("gidx: section rank %d/%d/%d does not match shape rank %d",
			len(s.Lo), len(s.Hi), len(s.Step), len(shape))
	}
	for d := range s.Lo {
		if s.Step[d] <= 0 {
			return fmt.Errorf("gidx: dim %d: step %d must be positive", d, s.Step[d])
		}
		if s.Lo[d] < 0 || s.Hi[d] > shape[d] {
			return fmt.Errorf("gidx: dim %d: bounds [%d,%d) outside shape extent %d",
				d, s.Lo[d], s.Hi[d], shape[d])
		}
	}
	return nil
}

func (s Section) countDim(d int) int {
	if s.Hi[d] <= s.Lo[d] {
		return 0
	}
	return (s.Hi[d] - s.Lo[d] + s.Step[d] - 1) / s.Step[d]
}

// Size returns the total number of points in the section.
func (s Section) Size() int {
	n := 1
	for d := range s.Lo {
		n *= s.countDim(d)
	}
	return n
}

// Contains reports whether the global coordinates lie on the section's
// lattice.
func (s Section) Contains(coords []int) bool {
	for d, c := range coords {
		if c < s.Lo[d] || c >= s.Hi[d] || (c-s.Lo[d])%s.Step[d] != 0 {
			return false
		}
	}
	return true
}

// PointAt fills out with the coordinates of the k-th point of the
// section in row-major order (last dimension fastest) and returns it.
// This ordering is the section's linearization.
func (s Section) PointAt(k int, out []int) []int {
	if out == nil {
		out = make([]int, len(s.Lo))
	}
	for d := len(s.Lo) - 1; d >= 0; d-- {
		n := s.countDim(d)
		if n == 0 {
			panic("gidx: PointAt on empty section")
		}
		out[d] = s.Lo[d] + (k%n)*s.Step[d]
		k /= n
	}
	if k != 0 {
		panic("gidx: PointAt index out of range")
	}
	return out
}

// IndexOf returns the linearization position of the given point, which
// must lie on the section (check with Contains first if unsure).
func (s Section) IndexOf(coords []int) int {
	idx := 0
	for d := range coords {
		i := (coords[d] - s.Lo[d]) / s.Step[d]
		idx = idx*s.countDim(d) + i
	}
	return idx
}

// ForEach calls f for every point of the section in linearization
// order, passing the position and the point's global coordinates.  The
// coordinate slice is reused between calls; copy it to retain it.
func (s Section) ForEach(f func(pos int, coords []int)) {
	n := s.Size()
	if n == 0 {
		return
	}
	coords := append([]int(nil), s.Lo...)
	for pos := 0; pos < n; pos++ {
		f(pos, coords)
		for d := len(coords) - 1; d >= 0; d-- {
			coords[d] += s.Step[d]
			if coords[d] < s.Hi[d] {
				break
			}
			coords[d] = s.Lo[d]
		}
	}
}

// IntersectBox restricts the section to the half-open box [boxLo,
// boxHi), preserving the lattice.  It returns the restricted section
// and ok=false if the intersection is empty.
func (s Section) IntersectBox(boxLo, boxHi []int) (Section, bool) {
	out := Section{
		Lo:   make([]int, len(s.Lo)),
		Hi:   make([]int, len(s.Lo)),
		Step: append([]int(nil), s.Step...),
	}
	for d := range s.Lo {
		lo, hi, step := s.Lo[d], s.Hi[d], s.Step[d]
		if boxLo[d] > lo {
			// First lattice point at or above boxLo.
			k := (boxLo[d] - lo + step - 1) / step
			lo += k * step
		}
		if boxHi[d] < hi {
			hi = boxHi[d]
		}
		if lo >= hi {
			return Section{}, false
		}
		out.Lo[d], out.Hi[d] = lo, hi
	}
	return out, true
}

// String renders the section in lo:hi:step notation.
func (s Section) String() string {
	parts := make([]string, len(s.Lo))
	for d := range s.Lo {
		parts[d] = fmt.Sprintf("%d:%d:%d", s.Lo[d], s.Hi[d], s.Step[d])
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
