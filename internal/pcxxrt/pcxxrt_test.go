package pcxxrt

import (
	"testing"
	"testing/quick"

	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mpsim"
)

func TestCollectionPlacement(t *testing.T) {
	c, err := NewCollection(10, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 of 3 owns elements 1,4,7 -> 3 elements of 2 words.
	if len(c.Local()) != 6 {
		t.Errorf("local storage %d words, want 6", len(c.Local()))
	}
	if c.Owner(7) != 1 || c.Slot(7) != 2 {
		t.Errorf("element 7: owner=%d slot=%d", c.Owner(7), c.Slot(7))
	}
	var visited []int
	c.ForEachOwned(func(i int, elem []float64) {
		visited = append(visited, i)
		if len(elem) != 2 {
			t.Errorf("element %d has %d words", i, len(elem))
		}
	})
	if len(visited) != 3 || visited[0] != 1 || visited[1] != 4 || visited[2] != 7 {
		t.Errorf("visited %v", visited)
	}
}

func TestCollectionValidation(t *testing.T) {
	if _, err := NewCollection(0, 2, 1, 0); err == nil {
		t.Error("empty collection accepted")
	}
	if _, err := NewCollection(5, 2, 1, 2); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := NewCollection(5, 2, 0, 0); err == nil {
		t.Error("zero-word elements accepted")
	}
}

func TestRangeRegionSize(t *testing.T) {
	cases := []struct {
		r RangeRegion
		n int
	}{
		{RangeRegion{0, 10, 1}, 10},
		{RangeRegion{2, 11, 3}, 3},
		{RangeRegion{5, 5, 1}, 0},
		{RangeRegion{5, 4, 1}, 0},
	}
	for _, c := range cases {
		if got := c.r.Size(); got != c.n {
			t.Errorf("%+v: Size=%d want %d", c.r, got, c.n)
		}
	}
}

func TestDerefConsistency(t *testing.T) {
	const n, nprocs = 33, 4
	set := core.NewSetOfRegions(RangeRegion{3, 30, 3}, RangeRegion{0, 5, 1})
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		c, _ := NewCollection(n, nprocs, 3, p.Rank())
		locs := expand(Library.DerefRange(ctx, c, set, 0, set.Size(), nil))
		positions := make([]int32, set.Size())
		for i := range positions {
			positions[i] = int32(i)
		}
		at := expand(Library.DerefAt(ctx, c, set, points(positions), nil))
		for i := range locs {
			if locs[i] != at[i] {
				t.Fatalf("DerefRange/DerefAt disagree at %d", i)
			}
		}
		owned := expandOwned(Library.OwnedPositions(ctx, c, set, nil))
		for _, pl := range owned {
			if locs[pl.Pos].Proc != int32(p.Rank()) || locs[pl.Pos].Off != pl.Off {
				t.Fatalf("owned position %d inconsistent", pl.Pos)
			}
		}
	})
}

// TestCollectionToHPFCopy: cross-library copies need equal element
// widths, so a 1-word collection feeds an HPF array.
func TestCollectionToHPFCopy(t *testing.T) {
	const n, nprocs = 24, 3
	got := make([]float64, n)
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		c, _ := NewCollection(n, nprocs, 1, p.Rank())
		c.ForEachOwned(func(i int, elem []float64) { elem[0] = float64(i) * 2 })
		h := hpfrt.NewArray(hpfrt.BlockVector(n, nprocs), p.Rank())

		sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
			&core.Spec{Lib: Library, Obj: c, Set: core.NewSetOfRegions(RangeRegion{0, n, 1}), Ctx: ctx},
			&core.Spec{Lib: hpfrt.Library, Obj: h, Set: core.NewSetOfRegions(gidx.FullSection(gidx.Shape{n})), Ctx: ctx},
			core.Cooperation)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		sched.Move(c, h)
		var w codec.Writer
		lo, hi, _ := h.Dist().LocalBox(p.Rank())
		for i := lo[0]; i < hi[0]; i++ {
			w.PutInt32(int32(i))
			w.PutFloat64(h.Get([]int{i}))
		}
		for _, part := range p.Comm().Allgather(w.Bytes()) {
			r := codec.NewReader(part)
			for r.Remaining() > 0 {
				i := r.Int32()
				got[i] = r.Float64()
			}
		}
	})
	for i := range got {
		if got[i] != float64(i)*2 {
			t.Fatalf("h[%d]=%g want %g", i, got[i], float64(i)*2)
		}
	}
}

func TestMultiWordCollectionCopy(t *testing.T) {
	// Two collections with 4-word elements, different process counts in
	// two programs, duplication method (compact descriptors).
	const n, words = 15, 4
	var got [n][words]float64
	mpsim.Run(mpsim.Config{
		Machine: mpsim.Ideal(),
		Programs: []mpsim.ProgramSpec{
			{Name: "producer", Procs: 3, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				c, _ := NewCollection(n, 3, words, p.Rank())
				c.ForEachOwned(func(i int, elem []float64) {
					for w := range elem {
						elem[w] = float64(i*100 + w)
					}
				})
				coupling, _ := core.CoupleByName(p, "producer", "consumer")
				sched, err := core.ComputeSchedule(coupling,
					&core.Spec{Lib: Library, Obj: c, Set: core.NewSetOfRegions(RangeRegion{0, n, 1}), Ctx: ctx},
					nil, core.Duplication)
				if err != nil {
					t.Errorf("producer: %v", err)
					return
				}
				sched.MoveSend(c)
			}},
			{Name: "consumer", Procs: 2, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				c, _ := NewCollection(n, 2, words, p.Rank())
				coupling, _ := core.CoupleByName(p, "producer", "consumer")
				sched, err := core.ComputeSchedule(coupling, nil,
					&core.Spec{Lib: Library, Obj: c, Set: core.NewSetOfRegions(RangeRegion{0, n, 1}), Ctx: ctx},
					core.Duplication)
				if err != nil {
					t.Errorf("consumer: %v", err)
					return
				}
				sched.MoveRecv(c)
				var w codec.Writer
				c.ForEachOwned(func(i int, elem []float64) {
					w.PutInt32(int32(i))
					for _, v := range elem {
						w.PutFloat64(v)
					}
				})
				for _, part := range p.Comm().Allgather(w.Bytes()) {
					r := codec.NewReader(part)
					for r.Remaining() > 0 {
						i := r.Int32()
						for w := range got[i] {
							got[i][w] = r.Float64()
						}
					}
				}
			}},
		},
	})
	for i := 0; i < n; i++ {
		for w := 0; w < words; w++ {
			if got[i][w] != float64(i*100+w) {
				t.Fatalf("element %d word %d = %g want %d", i, w, got[i][w], i*100+w)
			}
		}
	}
}

func TestDescriptorAndRegionCodecs(t *testing.T) {
	c, _ := NewCollection(40, 5, 2, 0)
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		blob, compact := Library.EncodeDescriptor(ctx, c)
		if !compact {
			t.Error("collection descriptor should be compact")
		}
		v, err := Library.DecodeDescriptor(blob)
		if err != nil {
			t.Fatal(err)
		}
		view := v.(*Collection)
		if view.Elem() != core.Float64Elems(2) || !view.LocalMem().IsNil() {
			t.Error("bad view")
		}
	})
	r := RangeRegion{4, 19, 5}
	back, err := Library.DecodeRegion(Library.EncodeRegion(r))
	if err != nil {
		t.Fatal(err)
	}
	if back.(RangeRegion) != r {
		t.Errorf("region round trip: %v", back)
	}
}

// Property: ownership partitions every collection.
func TestQuickRoundRobinPartition(t *testing.T) {
	f := func(n8, p8, w8 uint8) bool {
		n, nprocs, words := int(n8%50)+1, int(p8%6)+1, int(w8%4)+1
		total := 0
		for r := 0; r < nprocs; r++ {
			c, err := NewCollection(n, nprocs, words, r)
			if err != nil {
				return false
			}
			total += len(c.Local()) / words
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
