package mbparti

import (
	"fmt"
	"testing"

	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/mpsim"
)

// gatherGlobal reconstructs the full global array on every process
// (test helper).
func gatherGlobal(c *mpsim.Comm, a *Array) []float64 {
	shape := a.dist.Shape()
	out := make([]float64, shape.Size())
	var mine codec.Writer
	a.dist.EachOwned(a.rank, func(local, g []int) {
		mine.PutInt32(int32(shape.Linear(g)))
		mine.PutFloat64(a.data[a.offsetLocal(local)])
	})
	for _, part := range c.Allgather(mine.Bytes()) {
		r := codec.NewReader(part)
		for r.Remaining() > 0 {
			lin := r.Int32()
			out[lin] = r.Float64()
		}
	}
	return out
}

func TestArrayOffsetsWithHalo(t *testing.T) {
	d := distarray.MustBlock2D(8, 8, 4)
	mpsim.RunSPMD(mpsim.Ideal(), 4, func(p *mpsim.Proc) {
		a := MustNewArray(d, p.Rank(), 2)
		if len(a.Local()) != (4+4)*(4+4) {
			t.Errorf("padded tile has %d elements, want 64", len(a.Local()))
		}
		a.FillGlobal(func(c []int) float64 { return float64(c[0]*10 + c[1]) })
		lo, hi, _ := d.LocalBox(p.Rank())
		for i := lo[0]; i < hi[0]; i++ {
			for j := lo[1]; j < hi[1]; j++ {
				if got := a.Get([]int{i, j}); got != float64(i*10+j) {
					t.Errorf("rank %d: (%d,%d)=%g", p.Rank(), i, j, got)
				}
			}
		}
	})
}

func TestArrayRejectsBadConfigs(t *testing.T) {
	d := distarray.MustBlock2D(8, 8, 4)
	if _, err := NewArray(d, 0, -1); err == nil {
		t.Error("negative halo accepted")
	}
	dc, _ := distarray.NewDist(gidx.Shape{8}, []int{2}, []distarray.Kind{distarray.Cyclic})
	if _, err := NewArray(dc, 0, 1); err == nil {
		t.Error("halo on cyclic distribution accepted")
	}
	if _, err := NewArray(dc, 0, 0); err != nil {
		t.Errorf("halo-free cyclic array rejected: %v", err)
	}
}

func TestGhostExchangeFillsHalo(t *testing.T) {
	for _, nprocs := range []int{2, 4} {
		nprocs := nprocs
		t.Run(fmt.Sprintf("P%d", nprocs), func(t *testing.T) {
			d := distarray.MustBlock2D(12, 12, nprocs)
			mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
				a := MustNewArray(d, p.Rank(), 1)
				a.FillGlobal(func(c []int) float64 { return float64(c[0]*100 + c[1]) })
				gs, err := BuildGhostSchedule(p, p.Comm(), a)
				if err != nil {
					t.Errorf("BuildGhostSchedule: %v", err)
					return
				}
				gs.Exchange(p, a)
				// Every padded cell whose global point exists must hold
				// the global value, including halo corners.
				lo, hi, _ := d.LocalBox(p.Rank())
				for gi := lo[0] - 1; gi < hi[0]+1; gi++ {
					for gj := lo[1] - 1; gj < hi[1]+1; gj++ {
						if gi < 0 || gi >= 12 || gj < 0 || gj >= 12 {
							continue
						}
						got := a.GetPadded([]int{gi - lo[0], gj - lo[1]})
						if got != float64(gi*100+gj) {
							t.Errorf("rank %d halo (%d,%d)=%g want %d",
								p.Rank(), gi, gj, got, gi*100+gj)
						}
					}
				}
			})
		})
	}
}

func TestGhostExchangeReusable(t *testing.T) {
	d := distarray.MustBlock2D(8, 8, 4)
	mpsim.RunSPMD(mpsim.Ideal(), 4, func(p *mpsim.Proc) {
		a := MustNewArray(d, p.Rank(), 1)
		gs, _ := BuildGhostSchedule(p, p.Comm(), a)
		for iter := 1; iter <= 3; iter++ {
			a.FillGlobal(func(c []int) float64 { return float64(iter*1000 + c[0]*10 + c[1]) })
			gs.Exchange(p, a)
			lo, hi, _ := d.LocalBox(p.Rank())
			if lo[0] > 0 { // check one upper halo row cell
				got := a.GetPadded([]int{-1, 0})
				want := float64(iter*1000 + (lo[0]-1)*10 + lo[1])
				if got != want {
					t.Errorf("iter %d rank %d: halo=%g want %g", iter, p.Rank(), got, want)
				}
			}
			_ = hi
		}
	})
}

// sequentialStencil applies the paper's Loop 1 once to a full global
// copy.
func sequentialStencil(global []float64, n0, n1 int) []float64 {
	out := append([]float64(nil), global...)
	for i := 1; i < n0-1; i++ {
		for j := 1; j < n1-1; j++ {
			out[i*n1+j] = global[i*n1+j-1] + global[(i-1)*n1+j] + global[(i+1)*n1+j] + global[i*n1+j+1]
		}
	}
	return out
}

func TestStencilMatchesSequential(t *testing.T) {
	const n = 16
	for _, nprocs := range []int{1, 2, 4} {
		nprocs := nprocs
		t.Run(fmt.Sprintf("P%d", nprocs), func(t *testing.T) {
			d := distarray.MustBlock2D(n, n, nprocs)
			var got []float64
			mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
				a := MustNewArray(d, p.Rank(), 1)
				a.FillGlobal(func(c []int) float64 { return float64(c[0]*31 + c[1]*7) })
				gs, _ := BuildGhostSchedule(p, p.Comm(), a)
				for iter := 0; iter < 3; iter++ {
					gs.Exchange(p, a)
					Stencil5(p, a)
				}
				all := gatherGlobal(p.Comm(), a)
				if p.Rank() == 0 {
					got = all
				}
			})
			want := make([]float64, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want[i*n+j] = float64(i*31 + j*7)
				}
			}
			for iter := 0; iter < 3; iter++ {
				want = sequentialStencil(want, n, n)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("P=%d element %d: got %g want %g", nprocs, k, got[k], want[k])
				}
			}
		})
	}
}

func TestCopyScheduleMatchesReference(t *testing.T) {
	// Copy B[50:100, 50:100] onto A[0:50, 10:60] across two different
	// distributions (the paper's Figure 9 example, scaled down).
	const nprocs = 4
	dB := distarray.MustBlock2D(200, 100, nprocs)
	dA := distarray.MustBlock2D(50, 60, nprocs)
	srcSec := gidx.NewSection([]int{50, 50}, []int{100, 100})
	dstSec := gidx.NewSection([]int{0, 10}, []int{50, 60})
	var gotA, refB []float64
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		b := MustNewArray(dB, p.Rank(), 0)
		a := MustNewArray(dA, p.Rank(), 0)
		b.FillGlobal(func(c []int) float64 { return float64(c[0]*1000 + c[1]) })
		cs, err := BuildCopySchedule(p, p.Comm(), b, srcSec, a, dstSec)
		if err != nil {
			t.Errorf("BuildCopySchedule: %v", err)
			return
		}
		cs.Execute(p, b, a)
		allA := gatherGlobal(p.Comm(), a)
		allB := gatherGlobal(p.Comm(), b)
		if p.Rank() == 0 {
			gotA, refB = allA, allB
		}
	})
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			got := gotA[i*60+(10+j)]
			want := refB[(50+i)*100+(50+j)]
			if got != want {
				t.Fatalf("A[%d,%d]=%g want B[%d,%d]=%g", i, 10+j, got, 50+i, 50+j, want)
			}
		}
	}
}

func TestCopyScheduleSelfStagingSingleProc(t *testing.T) {
	d := distarray.MustBlock2D(10, 10, 1)
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		src := MustNewArray(d, 0, 0)
		dst := MustNewArray(d, 0, 0)
		src.FillGlobal(func(c []int) float64 { return float64(c[0] + c[1]) })
		sec := gidx.NewSection([]int{0, 0}, []int{5, 10})
		cs, err := BuildCopySchedule(p, p.Comm(), src, sec, dst, gidx.NewSection([]int{5, 0}, []int{10, 10}))
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if len(cs.sends) != 0 || len(cs.selfSrc) != 50 {
			t.Errorf("msgs=%d self=%d, want 0/50", len(cs.sends), len(cs.selfSrc))
		}
		cs.Execute(p, src, dst)
		if got := dst.Get([]int{7, 3}); got != float64(2+3) {
			t.Errorf("dst[7,3]=%g want 5", got)
		}
	})
}

func TestCopyScheduleErrors(t *testing.T) {
	d := distarray.MustBlock2D(10, 10, 2)
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		a := MustNewArray(d, p.Rank(), 0)
		b := MustNewArray(d, p.Rank(), 0)
		// Size mismatch.
		if _, err := BuildCopySchedule(p, p.Comm(), a, gidx.NewSection([]int{0, 0}, []int{2, 2}),
			b, gidx.NewSection([]int{0, 0}, []int{3, 3})); err == nil {
			t.Error("size mismatch accepted")
		}
		// Section outside the array.
		if _, err := BuildCopySchedule(p, p.Comm(), a, gidx.NewSection([]int{0, 0}, []int{11, 1}),
			b, gidx.NewSection([]int{0, 0}, []int{11, 1})); err == nil {
			t.Error("out-of-bounds section accepted")
		}
	})
}

// TestMetaChaosMatchesNative verifies the paper's core efficiency
// claim on regular meshes: Meta-Chaos moves the same data with the
// same number of (inter-process) messages as the specialized library,
// and produces identical results, for both schedule methods.
func TestMetaChaosMatchesNative(t *testing.T) {
	const nprocs = 4
	dB := distarray.MustBlock2D(64, 64, nprocs)
	dA := distarray.MustBlock2D(64, 64, nprocs)
	srcSec := gidx.NewSection([]int{0, 0}, []int{32, 64})
	dstSec := gidx.NewSection([]int{32, 0}, []int{64, 64})

	type outcome struct {
		data []float64
		msgs int64
	}
	results := map[string]outcome{}

	run := func(name string, body func(p *mpsim.Proc, b, a *Array) func()) {
		var data []float64
		st := mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
			b := MustNewArray(dB, p.Rank(), 0)
			a := MustNewArray(dA, p.Rank(), 0)
			b.FillGlobal(func(c []int) float64 { return float64(c[0]*64 + c[1]) })
			move := body(p, b, a)
			start := p.Comm().AllreduceInt64(mpsim.OpSum, 0) // sync point
			_ = start
			move()
			all := gatherGlobal(p.Comm(), a)
			if p.Rank() == 0 {
				data = all
			}
		})
		results[name] = outcome{data: data, msgs: st.TotalMsgs()}
	}

	run("native", func(p *mpsim.Proc, b, a *Array) func() {
		cs, err := BuildCopySchedule(p, p.Comm(), b, srcSec, a, dstSec)
		if err != nil {
			t.Fatalf("native: %v", err)
		}
		return func() { cs.Execute(p, b, a) }
	})
	for _, m := range []core.Method{core.Cooperation, core.Duplication} {
		m := m
		run(m.String(), func(p *mpsim.Proc, b, a *Array) func() {
			ctx := core.NewCtx(p, p.Comm())
			sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
				&core.Spec{Lib: Library, Obj: b, Set: core.NewSetOfRegions(srcSec), Ctx: ctx},
				&core.Spec{Lib: Library, Obj: a, Set: core.NewSetOfRegions(dstSec), Ctx: ctx},
				m)
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			return func() { sched.Move(b, a) }
		})
	}

	native := results["native"]
	for name, r := range results {
		if len(r.data) != len(native.data) {
			t.Fatalf("%s: gathered %d elements", name, len(r.data))
		}
		for k := range native.data {
			if r.data[k] != native.data[k] {
				t.Fatalf("%s differs from native at element %d: %g vs %g",
					name, k, r.data[k], native.data[k])
			}
		}
	}
	// The move itself must use the same message count as the native
	// library.  The duplication build is message-free for regular
	// distributions apart from ComputeSchedule's two fixed metadata
	// broadcasts of P-1 messages each; cooperation additionally
	// exchanges schedule fragments.
	metaOverhead := int64(2 * (nprocs - 1))
	if got, want := results["duplication"].msgs, native.msgs+metaOverhead; got != want {
		t.Errorf("duplication run used %d messages, want %d (native %d + %d metadata)",
			got, want, native.msgs, metaOverhead)
	}
	if results["cooperation"].msgs <= results["duplication"].msgs {
		t.Errorf("cooperation (%d msgs) should exchange more than duplication (%d)",
			results["cooperation"].msgs, results["duplication"].msgs)
	}
}

func TestSeclibDerefConsistency(t *testing.T) {
	// DerefRange, DerefAt and OwnedPositions must agree with each other
	// and with the array's own addressing.
	const nprocs = 3
	d, _ := distarray.NewDist(gidx.Shape{9, 7}, []int{3, 1}, []distarray.Kind{distarray.Block, distarray.Block})
	sec := gidx.Section{Lo: []int{1, 0}, Hi: []int{9, 7}, Step: []int{2, 3}}
	set := core.NewSetOfRegions(sec)
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		a := MustNewArray(d, p.Rank(), 1)
		ctx := core.NewCtx(p, p.Comm())
		n := set.Size()
		locs := expand(Library.DerefRange(ctx, a, set, 0, n, nil))
		if len(locs) != n {
			t.Fatalf("DerefRange returned %d locs, want %d", len(locs), n)
		}
		positions := make([]int32, n)
		for i := range positions {
			positions[i] = int32(i)
		}
		locsAt := expand(Library.DerefAt(ctx, a, set, points(positions), nil))
		for i := range locs {
			if locs[i] != locsAt[i] {
				t.Fatalf("DerefRange and DerefAt disagree at %d: %v vs %v", i, locs[i], locsAt[i])
			}
		}
		owned := expandOwned(Library.OwnedPositions(ctx, a, set, nil))
		seen := map[int32]int32{}
		for _, pl := range owned {
			seen[pl.Pos] = pl.Off
		}
		for i, loc := range locs {
			if int(loc.Proc) == p.Rank() {
				off, ok := seen[int32(i)]
				if !ok || off != loc.Off {
					t.Fatalf("OwnedPositions missing or wrong for pos %d: %v vs %v", i, off, loc.Off)
				}
				delete(seen, int32(i))
			}
		}
		if len(seen) != 0 {
			t.Fatalf("OwnedPositions reported %d extra positions", len(seen))
		}
		// Every loc's offset must address the element the section names.
		coords := make([]int, 2)
		for i, loc := range locs {
			if int(loc.Proc) == p.Rank() {
				sec.PointAt(i, coords)
				if int(loc.Off) != a.OffsetOf(coords) {
					t.Fatalf("pos %d: deref offset %d, array offset %d", i, loc.Off, a.OffsetOf(coords))
				}
			}
		}
	})
}

func TestSeclibDescriptorRoundTrip(t *testing.T) {
	d, _ := distarray.NewDist(gidx.Shape{12, 8}, []int{2, 2}, []distarray.Kind{distarray.Block, distarray.Cyclic})
	mpsim.RunSPMD(mpsim.Ideal(), 4, func(p *mpsim.Proc) {
		a := MustNewArray(d, p.Rank(), 0)
		blob, compact := Library.EncodeDescriptor(core.NewCtx(p, p.Comm()), a)
		if !compact {
			t.Error("regular descriptor should be compact")
		}
		view, err := Library.DecodeDescriptor(blob)
		if err != nil {
			t.Fatalf("DecodeDescriptor: %v", err)
		}
		if !view.LocalMem().IsNil() {
			t.Error("view should carry no storage")
		}
		set := core.NewSetOfRegions(gidx.FullSection(gidx.Shape{12, 8}))
		ctx := core.NewCtx(p, p.Comm())
		want := Library.DerefRange(ctx, a, set, 0, set.Size(), nil)
		got := Library.DerefRange(ctx, view, set, 0, set.Size(), nil)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("view deref differs at %d: %v vs %v", i, got[i], want[i])
			}
		}
	})
}

func TestSeclibRegionRoundTrip(t *testing.T) {
	sec := gidx.Section{Lo: []int{1, 2}, Hi: []int{9, 8}, Step: []int{2, 1}}
	blob := Library.EncodeRegion(sec)
	r, err := Library.DecodeRegion(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := r.(gidx.Section)
	if got.String() != sec.String() {
		t.Errorf("round trip: %v vs %v", got, sec)
	}
}
