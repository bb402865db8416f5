package gidx

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestShapeBasics(t *testing.T) {
	s := Shape{3, 4, 5}
	if !s.Valid() {
		t.Fatal("shape should be valid")
	}
	if s.Size() != 60 {
		t.Errorf("Size=%d want 60", s.Size())
	}
	// Row-major: a unit step in dimension d moves the linear index by
	// the product of the later extents.
	for d, want := range []int{20, 5, 1} {
		unit := make([]int, 3)
		unit[d] = 1
		if got := s.Linear(unit); got != want {
			t.Errorf("stride of dim %d = %d, want %d", d, got, want)
		}
	}
	if s.String() != "[3 4 5]" {
		t.Errorf("String=%q", s.String())
	}
	if (Shape{}).Valid() || (Shape{0, 2}).Valid() || (Shape{-1}).Valid() {
		t.Error("degenerate shapes should be invalid")
	}
}

func TestLinearCoordsRoundTrip(t *testing.T) {
	s := Shape{3, 4, 5}
	coords := make([]int, 3)
	for lin := 0; lin < s.Size(); lin++ {
		s.Coords(lin, coords)
		if got := s.Linear(coords); got != lin {
			t.Fatalf("round trip %d -> %v -> %d", lin, coords, got)
		}
	}
}

func TestLinearRowMajorOrder(t *testing.T) {
	s := Shape{2, 3}
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	for lin, w := range want {
		if got := s.Coords(lin, nil); !reflect.DeepEqual(got, w) {
			t.Errorf("Coords(%d)=%v want %v", lin, got, w)
		}
	}
}

func TestLinearPanics(t *testing.T) {
	s := Shape{2, 2}
	for _, bad := range [][]int{{2, 0}, {0, -1}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Linear(%v) should panic", bad)
				}
			}()
			s.Linear(bad)
		}()
	}
}

func TestSectionSizeAndCounts(t *testing.T) {
	// Fortran-style a(2:7:2) over a half-open section [2,8) step 2:
	// points 2,4,6.
	s := Section{Lo: []int{2}, Hi: []int{8}, Step: []int{2}}
	if s.Size() != 3 {
		t.Errorf("Size=%d want 3", s.Size())
	}
	s2 := Section{Lo: []int{1, 2}, Hi: []int{4, 9}, Step: []int{1, 3}}
	if got := []int{s2.countDim(0), s2.countDim(1)}; !reflect.DeepEqual(got, []int{3, 3}) {
		t.Errorf("counts=%v", got)
	}
	if s2.Size() != 9 {
		t.Errorf("Size=%d want 9", s2.Size())
	}
	empty := Section{Lo: []int{5}, Hi: []int{5}, Step: []int{1}}
	if empty.Size() != 0 {
		t.Error("empty section not reported empty")
	}
}

func TestSectionValidate(t *testing.T) {
	shape := Shape{10, 10}
	good := NewSection([]int{1, 2}, []int{5, 9})
	if err := good.Validate(shape); err != nil {
		t.Errorf("valid section rejected: %v", err)
	}
	bad := []Section{
		{Lo: []int{0}, Hi: []int{5}, Step: []int{1}},           // rank mismatch
		{Lo: []int{0, 0}, Hi: []int{5, 11}, Step: []int{1, 1}}, // beyond shape
		{Lo: []int{-1, 0}, Hi: []int{5, 5}, Step: []int{1, 1}}, // negative lo
		{Lo: []int{0, 0}, Hi: []int{5, 5}, Step: []int{0, 1}},  // zero step
		{Lo: []int{0, 0}, Hi: []int{5, 5}, Step: []int{1, -2}}, // negative step
	}
	for i, s := range bad {
		if err := s.Validate(shape); err == nil {
			t.Errorf("bad section %d accepted", i)
		}
	}
}

func TestSectionForEachOrderMatchesPointAt(t *testing.T) {
	s := Section{Lo: []int{1, 0}, Hi: []int{6, 7}, Step: []int{2, 3}}
	var visited [][]int
	s.ForEach(func(pos int, coords []int) {
		if pos != len(visited) {
			t.Fatalf("positions out of order: %d", pos)
		}
		visited = append(visited, append([]int(nil), coords...))
	})
	if len(visited) != s.Size() {
		t.Fatalf("visited %d points, want %d", len(visited), s.Size())
	}
	for k, w := range visited {
		if got := s.PointAt(k, nil); !reflect.DeepEqual(got, w) {
			t.Errorf("PointAt(%d)=%v want %v", k, got, w)
		}
		if got := s.IndexOf(w); got != k {
			t.Errorf("IndexOf(%v)=%d want %d", w, got, k)
		}
		if !s.Contains(w) {
			t.Errorf("Contains(%v)=false for a visited point", w)
		}
	}
}

func TestSectionContains(t *testing.T) {
	s := Section{Lo: []int{2, 1}, Hi: []int{10, 8}, Step: []int{3, 2}}
	if !s.Contains([]int{5, 3}) {
		t.Error("5,3 should be on the lattice")
	}
	for _, bad := range [][]int{{4, 3}, {5, 2}, {11, 1}, {2, 9}} {
		if s.Contains(bad) {
			t.Errorf("%v should not be on the lattice", bad)
		}
	}
}

func TestIntersectBox(t *testing.T) {
	s := Section{Lo: []int{0, 0}, Hi: []int{10, 10}, Step: []int{3, 1}}
	// Box covering rows 4..8: lattice rows inside are 6.
	got, ok := s.IntersectBox([]int{4, 2}, []int{8, 5})
	if !ok {
		t.Fatal("intersection should be non-empty")
	}
	if got.Lo[0] != 6 || got.Hi[0] != 8 || got.Lo[1] != 2 || got.Hi[1] != 5 {
		t.Errorf("got %v", got)
	}
	if got.Size() != 3 {
		t.Errorf("Size=%d want 3 (one row, cols 2,3,4)", got.Size())
	}
	if _, ok := s.IntersectBox([]int{10, 0}, []int{12, 10}); ok {
		t.Error("out-of-range box should be empty")
	}
	// Box that falls between lattice points.
	s2 := Section{Lo: []int{0}, Hi: []int{20}, Step: []int{5}}
	if _, ok := s2.IntersectBox([]int{6}, []int{9}); ok {
		t.Error("box between lattice points should be empty")
	}
}

func TestIntersectBoxPreservesLinearization(t *testing.T) {
	// Every point of the intersection must keep its membership and
	// coordinates from the parent section.
	s := Section{Lo: []int{1, 2}, Hi: []int{20, 30}, Step: []int{3, 4}}
	sub, ok := s.IntersectBox([]int{5, 10}, []int{17, 25})
	if !ok {
		t.Fatal("expected non-empty intersection")
	}
	sub.ForEach(func(pos int, coords []int) {
		if !s.Contains(coords) {
			t.Errorf("intersection point %v not on parent lattice", coords)
		}
	})
}

func TestFullSection(t *testing.T) {
	s := FullSection(Shape{4, 6})
	if s.Size() != 24 {
		t.Errorf("Size=%d want 24", s.Size())
	}
	if err := s.Validate(Shape{4, 6}); err != nil {
		t.Errorf("FullSection invalid: %v", err)
	}
}

func TestSectionString(t *testing.T) {
	s := Section{Lo: []int{1, 2}, Hi: []int{5, 9}, Step: []int{1, 3}}
	if got := s.String(); got != "[1:5:1, 2:9:3]" {
		t.Errorf("String=%q", got)
	}
}

// Property: for random shapes, Linear and Coords are inverse bijections.
func TestQuickLinearBijection(t *testing.T) {
	f := func(a, b uint8) bool {
		s := Shape{int(a%7) + 1, int(b%9) + 1}
		seen := make(map[int]bool)
		coords := make([]int, 2)
		for lin := 0; lin < s.Size(); lin++ {
			s.Coords(lin, coords)
			l := s.Linear(coords)
			if l != lin || seen[l] {
				return false
			}
			seen[l] = true
		}
		return len(seen) == s.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PointAt enumerates exactly Size distinct lattice points,
// each of which Contains reports true, and IndexOf inverts PointAt.
func TestQuickSectionEnumeration(t *testing.T) {
	f := func(lo0, n0, st0, lo1, n1, st1 uint8) bool {
		s := Section{
			Lo:   []int{int(lo0 % 5), int(lo1 % 5)},
			Hi:   []int{0, 0},
			Step: []int{int(st0%3) + 1, int(st1%3) + 1},
		}
		s.Hi[0] = s.Lo[0] + int(n0%6)*s.Step[0] + 1
		s.Hi[1] = s.Lo[1] + int(n1%6)*s.Step[1] + 1
		seen := make(map[[2]int]bool)
		for k := 0; k < s.Size(); k++ {
			pt := s.PointAt(k, nil)
			key := [2]int{pt[0], pt[1]}
			if seen[key] || !s.Contains(pt) || s.IndexOf(pt) != k {
				return false
			}
			seen[key] = true
		}
		return len(seen) == s.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: IntersectBox result is exactly the subset of parent points
// inside the box.
func TestQuickIntersectBox(t *testing.T) {
	f := func(lo, hi, blo, bhi, step uint8) bool {
		s := Section{
			Lo:   []int{int(lo % 10)},
			Hi:   []int{int(lo%10) + int(hi%20)},
			Step: []int{int(step%4) + 1},
		}
		boxLo := []int{int(blo % 25)}
		boxHi := []int{int(blo%25) + int(bhi%10)}
		want := make(map[int]bool)
		s.ForEach(func(_ int, c []int) {
			if c[0] >= boxLo[0] && c[0] < boxHi[0] {
				want[c[0]] = true
			}
		})
		sub, ok := s.IntersectBox(boxLo, boxHi)
		if !ok {
			return len(want) == 0
		}
		got := make(map[int]bool)
		sub.ForEach(func(_ int, c []int) { got[c[0]] = true })
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
