package gidx

import (
	"reflect"
	"testing"
)

// Three-dimensional coverage for the index machinery.

func TestShape3D(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.Size() != 24 {
		t.Fatalf("Size=%d", s.Size())
	}
	// Row-major: a unit step in dimension d moves the linear index by
	// the product of the later extents.
	for d, want := range []int{12, 4, 1} {
		unit := make([]int, 3)
		unit[d] = 1
		if got := s.Linear(unit); got != want {
			t.Errorf("stride of dim %d = %d, want %d", d, got, want)
		}
	}
	coords := make([]int, 3)
	for lin := 0; lin < 24; lin++ {
		s.Coords(lin, coords)
		if s.Linear(coords) != lin {
			t.Fatalf("round trip failed at %d", lin)
		}
	}
}

func TestSection3DEnumeration(t *testing.T) {
	sec := Section{Lo: []int{0, 1, 0}, Hi: []int{4, 5, 6}, Step: []int{2, 2, 3}}
	// dims: 0,2 (2) x 1,3 (2) x 0,3 (2) = 8 points.
	if sec.Size() != 8 {
		t.Fatalf("Size=%d want 8", sec.Size())
	}
	want := [][]int{
		{0, 1, 0}, {0, 1, 3}, {0, 3, 0}, {0, 3, 3},
		{2, 1, 0}, {2, 1, 3}, {2, 3, 0}, {2, 3, 3},
	}
	sec.ForEach(func(pos int, coords []int) {
		if !reflect.DeepEqual(coords, want[pos]) {
			t.Errorf("pos %d = %v want %v", pos, coords, want[pos])
		}
		if sec.IndexOf(coords) != pos {
			t.Errorf("IndexOf(%v)=%d want %d", coords, sec.IndexOf(coords), pos)
		}
	})
}

func TestSection3DIntersect(t *testing.T) {
	sec := FullSection(Shape{8, 8, 8})
	sub, ok := sec.IntersectBox([]int{2, 0, 4}, []int{6, 3, 8})
	if !ok {
		t.Fatal("intersection empty")
	}
	if sub.Size() != 4*3*4 {
		t.Errorf("Size=%d want 48", sub.Size())
	}
	count := 0
	sub.ForEach(func(_ int, c []int) {
		if c[0] < 2 || c[0] >= 6 || c[1] >= 3 || c[2] < 4 {
			t.Errorf("point %v outside box", c)
		}
		count++
	})
	if count != 48 {
		t.Errorf("visited %d", count)
	}
}
