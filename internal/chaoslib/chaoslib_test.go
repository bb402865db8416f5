package chaoslib

import (
	"fmt"
	"math/rand"
	"testing"

	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/mpsim"
)

// splitPerm deals a permutation of [0,n) onto nprocs processes in
// contiguous slices, giving an irregular (shuffled) distribution.
func splitPerm(seed int64, n, nprocs, rank int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	lo, hi := rank*n/nprocs, (rank+1)*n/nprocs
	out := make([]int32, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = int32(perm[i])
	}
	return out
}

func TestTTableLookup(t *testing.T) {
	const n, nprocs = 100, 4
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		mine := splitPerm(1, n, nprocs, p.Rank())
		tt, err := BuildTTable(ctx, mine, nil)
		if err != nil {
			t.Errorf("BuildTTable: %v", err)
			return
		}
		if tt.N() != n {
			t.Errorf("N=%d want %d", tt.N(), n)
		}
		// Look up every element and verify ownership against the local
		// lists gathered from all processes.
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		locs := tt.Lookup(ctx, all)
		var w codec.Writer
		w.PutInt32s(mine)
		parts := p.Comm().Allgather(w.Bytes())
		for g, loc := range locs {
			ownerList := codec.NewReader(parts[loc.Proc]).Int32s()
			if int(loc.Off) >= len(ownerList) || ownerList[loc.Off] != int32(g) {
				t.Errorf("lookup(%d) = %+v, but owner list disagrees", g, loc)
				return
			}
		}
	})
}

func TestTTableLookupEmptyRequest(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 3, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		tt, _ := BuildTTable(ctx, splitPerm(2, 30, 3, p.Rank()), nil)
		var req []int32
		if p.Rank() == 1 {
			req = []int32{5, 17}
		}
		locs := tt.Lookup(ctx, req) // all ranks must participate
		if p.Rank() == 1 && len(locs) != 2 {
			t.Errorf("got %d locs", len(locs))
		}
	})
}

func TestTTableErrors(t *testing.T) {
	// Duplicate claim: both ranks claim index 0.
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		_, err := BuildTTable(ctx, []int32{0}, nil)
		if err == nil {
			t.Error("duplicate claim accepted")
		}
	})
	// Missing claim: index 3 of 4 never claimed, 1 claimed twice.
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		var mine []int32
		if p.Rank() == 0 {
			mine = []int32{0, 1}
		} else {
			mine = []int32{2, 2}
		}
		_, err := BuildTTable(ctx, mine, nil)
		if err == nil {
			t.Error("incomplete distribution accepted")
		}
	})
	// Index out of range.
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		mine := []int32{int32(p.Rank()*2 + 7)}
		_, err := BuildTTable(ctx, mine, nil)
		if err == nil {
			t.Error("out-of-range index accepted")
		}
	})
}

func TestTTableWithExplicitOffsets(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		// Rank 0 stores 0,1 at offsets 10,20; rank 1 stores 2,3 at 30,40.
		indices := []int32{int32(p.Rank() * 2), int32(p.Rank()*2 + 1)}
		offsets := []int32{int32(p.Rank()*20 + 10), int32(p.Rank()*20 + 20)}
		tt, err := BuildTTable(ctx, indices, offsets)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		locs := tt.Lookup(ctx, []int32{0, 1, 2, 3})
		want := []Loc{{Proc: 0, Off: 10}, {Proc: 0, Off: 20}, {Proc: 1, Off: 30}, {Proc: 1, Off: 40}}
		for i := range want {
			if locs[i] != want[i] {
				t.Errorf("lookup(%d)=%+v want %+v", i, locs[i], want[i])
			}
		}
	})
}

func TestReplicateMatchesDistributed(t *testing.T) {
	const n, nprocs = 60, 3
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		tt, _ := BuildTTable(ctx, splitPerm(3, n, nprocs, p.Rank()), nil)
		rep := tt.Replicate(ctx)
		if rep.full == nil {
			t.Error("Replicate did not produce a replicated table")
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		want := tt.Lookup(ctx, all)
		got := rep.Lookup(ctx, all) // local: no collective needed, but harmless
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("replicated lookup(%d)=%+v want %+v", i, got[i], want[i])
			}
		}
	})
}

// sequentialEdgeSweep is the reference for the paper's Loop 3 on a
// ring of n nodes: for each edge (u,v): y[u] += (x[u]+x[v])/4 and
// y[v] += (x[u]+x[v])/4.
func sequentialEdgeSweep(x []float64, edges [][2]int32) []float64 {
	y := make([]float64, len(x))
	for _, e := range edges {
		v := (x[e[0]] + x[e[1]]) / 4
		y[e[0]] += v
		y[e[1]] += v
	}
	return y
}

func TestIrregularSweepMatchesSequential(t *testing.T) {
	const n, nprocs = 48, 4
	// Ring edges.
	edges := make([][2]int32, n)
	for i := range edges {
		edges[i] = [2]int32{int32(i), int32((i + 1) % n)}
	}
	xGlobal := make([]float64, n)
	for i := range xGlobal {
		xGlobal[i] = float64(i*i%13) + 1
	}
	want := sequentialEdgeSweep(xGlobal, edges)

	got := make([]float64, n)
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		x, err := NewArray(ctx, splitPerm(4, n, nprocs, p.Rank()))
		if err != nil {
			t.Errorf("NewArray: %v", err)
			return
		}
		y := NewAligned(x)
		x.FillGlobal(func(g int32) float64 { return xGlobal[g] })

		// Edges are dealt to processes in contiguous chunks (the edge
		// arrays ia/ib are regularly distributed).
		lo, hi := p.Rank()*n/nprocs, (p.Rank()+1)*n/nprocs
		var ia []int32
		for _, e := range edges[lo:hi] {
			ia = append(ia, e[0], e[1])
		}
		lz := Localize(ctx, x, ia)
		ghX := make([]float64, lz.NGhost())
		ghY := make([]float64, lz.NGhost())
		lz.Gather(x, ghX)
		for k := 0; k < len(ia); k += 2 {
			s1, s2 := lz.Slots[k], lz.Slots[k+1]
			v := (Value(x, ghX, s1) + Value(x, ghX, s2)) / 4
			Accumulate(y, ghY, s1, v)
			Accumulate(y, ghY, s2, v)
		}
		p.ChargeFlops(3 * len(ia) / 2)
		lz.ScatterAdd(y, ghY)

		// Collect results.
		var w codec.Writer
		for k, g := range y.Indices() {
			w.PutInt32(g)
			w.PutFloat64(y.GetLocal(k))
		}
		for _, part := range p.Comm().Allgather(w.Bytes()) {
			r := codec.NewReader(part)
			for r.Remaining() > 0 {
				g := r.Int32()
				got[g] = r.Float64()
			}
		}
	})
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("y[%d]=%g want %g", i, got[i], want[i])
		}
	}
}

func TestGatherReusableAcrossIterations(t *testing.T) {
	const n, nprocs = 20, 2
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		x, _ := NewArray(ctx, splitPerm(5, n, nprocs, p.Rank()))
		// Every process references elements 0..n-1.
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		lz := Localize(ctx, x, all)
		gh := make([]float64, lz.NGhost())
		for iter := 0; iter < 3; iter++ {
			x.FillGlobal(func(g int32) float64 { return float64(iter*100) + float64(g) })
			lz.Gather(x, gh)
			for i, slot := range lz.Slots {
				want := float64(iter*100) + float64(i)
				if got := Value(x, gh, slot); got != want {
					t.Fatalf("iter %d: element %d = %g want %g", iter, i, got, want)
				}
			}
		}
	})
}

func TestNativeCopySchedule(t *testing.T) {
	const n, nprocs = 64, 4
	srcIdx := make([]int32, 32)
	dstIdx := make([]int32, 32)
	for i := range srcIdx {
		srcIdx[i] = int32(2 * i)  // even source elements
		dstIdx[i] = int32(63 - i) // reversed tail of destination
	}
	got := make([]float64, n)
	var srcGlobal []float64
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		src, _ := NewArray(ctx, splitPerm(6, n, nprocs, p.Rank()))
		dst, _ := NewArray(ctx, splitPerm(7, n, nprocs, p.Rank()))
		src.FillGlobal(func(g int32) float64 { return float64(g) * 3 })
		cs, err := BuildCopySchedule(ctx, src.Table(), dst.Table(), srcIdx, dstIdx)
		if err != nil {
			t.Errorf("BuildCopySchedule: %v", err)
			return
		}
		cs.Execute(src.Local(), dst.Local())
		var w codec.Writer
		for k, g := range dst.Indices() {
			w.PutInt32(g)
			w.PutFloat64(dst.GetLocal(k))
		}
		for _, part := range p.Comm().Allgather(w.Bytes()) {
			r := codec.NewReader(part)
			for r.Remaining() > 0 {
				g := r.Int32()
				got[g] = r.Float64()
			}
		}
		if p.Rank() == 0 {
			srcGlobal = make([]float64, n)
			for i := range srcGlobal {
				srcGlobal[i] = float64(i) * 3
			}
		}
	})
	for k := range srcIdx {
		if got[dstIdx[k]] != srcGlobal[srcIdx[k]] {
			t.Fatalf("dst[%d]=%g want src[%d]=%g", dstIdx[k], got[dstIdx[k]], srcIdx[k], srcGlobal[srcIdx[k]])
		}
	}
}

func TestNativeCopyErrors(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		a, _ := NewArray(ctx, splitPerm(8, 10, 2, p.Rank()))
		if _, err := BuildCopySchedule(ctx, a.Table(), a.Table(), []int32{1, 2}, []int32{3}); err == nil {
			t.Error("length mismatch accepted")
		}
	})
}

func TestMetaChaosChaosToChaos(t *testing.T) {
	const n, nprocs = 50, 3
	srcIdx := IndexRegion{4, 9, 14, 19, 24, 29, 34, 39, 44, 49}
	dstIdx := IndexRegion{0, 1, 2, 3, 5, 6, 7, 8, 10, 11}
	for _, m := range []core.Method{core.Cooperation, core.Duplication} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			got := make([]float64, n)
			mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				src, _ := NewArray(ctx, splitPerm(9, n, nprocs, p.Rank()))
				dst, _ := NewArray(ctx, splitPerm(10, n, nprocs, p.Rank()))
				src.FillGlobal(func(g int32) float64 { return 1000 + float64(g) })
				sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
					&core.Spec{Lib: Library, Obj: src, Set: core.NewSetOfRegions(srcIdx), Ctx: ctx},
					&core.Spec{Lib: Library, Obj: dst, Set: core.NewSetOfRegions(dstIdx), Ctx: ctx}, m)
				if err != nil {
					t.Errorf("%v", err)
					return
				}
				sched.Move(src, dst)
				var w codec.Writer
				for k, g := range dst.Indices() {
					w.PutInt32(g)
					w.PutFloat64(dst.GetLocal(k))
				}
				for _, part := range p.Comm().Allgather(w.Bytes()) {
					r := codec.NewReader(part)
					for r.Remaining() > 0 {
						g := r.Int32()
						got[g] = r.Float64()
					}
				}
			})
			for k := range srcIdx {
				if got[dstIdx[k]] != 1000+float64(srcIdx[k]) {
					t.Fatalf("dst[%d]=%g want %g", dstIdx[k], got[dstIdx[k]], 1000+float64(srcIdx[k]))
				}
			}
		})
	}
}

func TestOwnedPositionsConsistency(t *testing.T) {
	const n, nprocs = 40, 4
	set := core.NewSetOfRegions(IndexRegion{5, 10, 15, 20}, IndexRegion{25, 30, 35, 1, 2, 3})
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		a, _ := NewArray(ctx, splitPerm(11, n, nprocs, p.Rank()))
		locs := expand(Library.DerefRange(ctx, a, set, 0, set.Size(), nil))
		owned := expandOwned(Library.OwnedPositions(ctx, a, set, nil))
		seen := map[int32]int32{}
		last := int32(-1)
		for _, pl := range owned {
			if pl.Pos <= last {
				t.Fatalf("OwnedPositions not sorted: %d after %d", pl.Pos, last)
			}
			last = pl.Pos
			seen[pl.Pos] = pl.Off
		}
		for i, loc := range locs {
			if int(loc.Proc) == p.Rank() {
				off, ok := seen[int32(i)]
				if !ok || off != loc.Off {
					t.Fatalf("pos %d: owned=%v/%v deref=%v", i, ok, off, loc.Off)
				}
				delete(seen, int32(i))
			}
		}
		if len(seen) != 0 {
			t.Fatalf("%d spurious owned positions", len(seen))
		}
	})
}

func TestDescriptorRoundTrip(t *testing.T) {
	const n, nprocs = 30, 3
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		a, _ := NewArray(ctx, splitPerm(12, n, nprocs, p.Rank()))
		blob, compact := Library.EncodeDescriptor(ctx, a)
		if compact {
			t.Error("CHAOS descriptors must report non-compact")
		}
		v, err := Library.DecodeDescriptor(blob)
		if err != nil {
			t.Fatalf("DecodeDescriptor: %v", err)
		}
		set := core.NewSetOfRegions(IndexRegion{0, 7, 13, 29})
		want := Library.DerefRange(ctx, a, set, 0, 4, nil)
		got := Library.DerefRange(ctx, v, set, 0, 4, nil)
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("view deref(%d)=%+v want %+v", i, got[i], want[i])
			}
		}
	})
}

// TestCrossProgramDuplicationWithChaos shows the expensive-but-possible
// case: duplication between two programs where one side is CHAOS, which
// ships the whole translation table.
func TestCrossProgramDuplicationWithChaos(t *testing.T) {
	const n = 24
	srcIdx := IndexRegion{1, 3, 5, 7, 9, 11}
	dstIdx := IndexRegion{0, 2, 4, 6, 8, 10}
	got := make([]float64, n)
	mpsim.Run(mpsim.Config{
		Machine: mpsim.Ideal(),
		Programs: []mpsim.ProgramSpec{
			{Name: "src", Procs: 2, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				a, _ := NewArray(ctx, splitPerm(13, n, 2, p.Rank()))
				a.FillGlobal(func(g int32) float64 { return 500 + float64(g) })
				coupling, _ := core.CoupleByName(p, "src", "dst")
				sched, err := core.ComputeSchedule(coupling,
					&core.Spec{Lib: Library, Obj: a, Set: core.NewSetOfRegions(srcIdx), Ctx: ctx},
					nil, core.Duplication)
				if err != nil {
					t.Errorf("src: %v", err)
					return
				}
				sched.MoveSend(a)
			}},
			{Name: "dst", Procs: 2, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				a, _ := NewArray(ctx, splitPerm(14, n, 2, p.Rank()))
				coupling, _ := core.CoupleByName(p, "src", "dst")
				sched, err := core.ComputeSchedule(coupling, nil,
					&core.Spec{Lib: Library, Obj: a, Set: core.NewSetOfRegions(dstIdx), Ctx: ctx},
					core.Duplication)
				if err != nil {
					t.Errorf("dst: %v", err)
					return
				}
				sched.MoveRecv(a)
				var w codec.Writer
				for k, g := range a.Indices() {
					w.PutInt32(g)
					w.PutFloat64(a.GetLocal(k))
				}
				for _, part := range p.Comm().Allgather(w.Bytes()) {
					r := codec.NewReader(part)
					for r.Remaining() > 0 {
						g := r.Int32()
						got[g] = r.Float64()
					}
				}
			}},
		},
	})
	for k := range srcIdx {
		if got[dstIdx[k]] != 500+float64(srcIdx[k]) {
			t.Fatalf("dst[%d]=%g want %g", dstIdx[k], got[dstIdx[k]], 500+float64(srcIdx[k]))
		}
	}
}

func TestRegionCodecRoundTrip(t *testing.T) {
	r := IndexRegion{9, 8, 7}
	blob := Library.EncodeRegion(r)
	back, err := Library.DecodeRegion(blob)
	if err != nil {
		t.Fatal(err)
	}
	ir := back.(IndexRegion)
	if len(ir) != 3 || ir[0] != 9 || ir[2] != 7 {
		t.Errorf("round trip: %v", ir)
	}
}

func TestLookupChargesDerefTime(t *testing.T) {
	// On a machine with non-zero DerefTime, a bigger lookup takes
	// longer.
	run := func(k int) float64 {
		st := mpsim.RunSPMD(mpsim.SP2(), 2, func(p *mpsim.Proc) {
			ctx := core.NewCtx(p, p.Comm())
			tt, _ := BuildTTable(ctx, splitPerm(15, 1000, 2, p.Rank()), nil)
			req := make([]int32, k)
			for i := range req {
				req[i] = int32(i % 1000)
			}
			tt.Lookup(ctx, req)
		})
		return st.MakespanSeconds
	}
	if small, large := run(10), run(500); large <= small {
		t.Errorf("500-element lookup (%.6fs) not slower than 10-element (%.6fs)", large, small)
	}
}

var _ = fmt.Sprintf // keep fmt for future debug output in this file
