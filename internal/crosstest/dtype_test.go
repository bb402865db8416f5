// Dtype sweep: the cross-library linearization contract re-checked for
// every element type the data plane carries, across all 25 library
// pairings and all three move flavours.  Sides are filled and verified
// generically through core.Mem unit accessors: dereferencing the full
// linearization of an object makes position k the global element k in
// every library, so OwnedPositions of the full set yields a
// library-agnostic (global element, storage offset) map.
//
// Fill values are small integers, exact in every scalar kind, and each
// scalar of a multi-word element gets a distinct value so word
// interleaving mistakes cannot cancel out.
package crosstest

import (
	"fmt"
	"math/rand"
	"testing"

	"metachaos/internal/chaoslib"
	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/faultsim"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/lparx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/pcxxrt"
)

// dtypes are the element types the sweep moves: the float64 baseline,
// a half-width float, a same-width integer (the ScheduleCache bugfix
// case), and a two-word struct-like element.
var dtypes = []core.ElemType{
	core.Float64,
	core.Float32,
	core.Int64,
	core.Float64Elems(2),
}

// maxWords bounds ElemType.Words for the snapshot key encoding.
const maxWords = 16

// typedSide is one half of a typed transfer: the object, its selected
// regions, and the full-linearization owned-position map that makes
// fill and snapshot generic over libraries and element types.
type typedSide struct {
	lib    core.Library
	obj    core.DistObject
	set    *core.SetOfRegions
	elemAt []int32
	mem    core.Mem
	owned  []posLoc
}

// posLoc is one owned element: its set position and local offset.
type posLoc struct{ Pos, Off int32 }

// buildTypedSide mirrors buildSide with typed constructors.  The
// returned side's owned list maps global element id -> local storage
// offset via the full-set dereference.
func buildTypedSide(t *testing.T, rng *rand.Rand, kind string, ctx *core.Ctx, p *mpsim.Proc, n, m int, et core.ElemType) *typedSide {
	t.Helper()
	nprocs := p.Size()
	s := &typedSide{}
	var full *core.SetOfRegions
	switch kind {
	case "hpf", "mbparti":
		var dist *distarray.Dist
		if kind == "hpf" && rng.Intn(2) == 0 {
			d, err := distarray.NewDist(gidx.Shape{n}, []int{nprocs}, []distarray.Kind{distarray.Cyclic})
			if err != nil {
				t.Fatal(err)
			}
			dist = d
		} else {
			dist = hpfrt.BlockVector(n, nprocs)
		}
		if kind == "hpf" {
			s.obj = &hpfrt.Array{Array: distarray.NewArrayTyped(dist, p.Rank(), et)}
		} else {
			halo := rng.Intn(2)
			if _, _, boxed := dist.LocalBox(p.Rank()); !boxed {
				halo = 0
			}
			a, err := mbparti.NewArrayTyped(dist, p.Rank(), halo, et)
			if err != nil {
				t.Fatal(err)
			}
			s.obj = a
		}
		s.set, s.elemAt = randomSections(rng, n, m)
		full = core.NewSetOfRegions(gidx.FullSection(gidx.Shape{n}))
		s.lib, _ = core.LookupLibrary(kind)

	case "chaos":
		perm := rng.Perm(n)
		lo, hi := p.Rank()*n/nprocs, (p.Rank()+1)*n/nprocs
		mine := make([]int32, hi-lo)
		for i := lo; i < hi; i++ {
			mine[i-lo] = int32(perm[i])
		}
		arr, err := chaoslib.NewArrayTyped(ctx, mine, et)
		if err != nil {
			t.Fatal(err)
		}
		s.obj = arr
		s.elemAt = randomDistinct(rng, n, m)
		s.set = core.NewSetOfRegions(chaoslib.IndexRegion(s.elemAt))
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		full = core.NewSetOfRegions(chaoslib.IndexRegion(all))
		s.lib = chaoslib.Library

	case "pcxx":
		coll, err := pcxxrt.NewCollectionTyped(n, nprocs, et, p.Rank())
		if err != nil {
			t.Fatal(err)
		}
		s.obj = coll
		if m < 0 {
			m = rng.Intn(n/2) + 1
		}
		lo := rng.Intn(n - m + 1)
		s.set = core.NewSetOfRegions(pcxxrt.RangeRegion{Lo: lo, Hi: lo + m, Step: 1})
		for k := 0; k < m; k++ {
			s.elemAt = append(s.elemAt, int32(lo+k))
		}
		full = core.NewSetOfRegions(pcxxrt.RangeRegion{Lo: 0, Hi: n, Step: 1})
		s.lib = pcxxrt.Library

	case "lparx":
		cuts := []int{0}
		for cuts[len(cuts)-1] < n {
			step := rng.Intn(n/2) + 1
			next := cuts[len(cuts)-1] + step
			if next > n {
				next = n
			}
			cuts = append(cuts, next)
		}
		var patches []lparx.Patch
		for i := 0; i+1 < len(cuts); i++ {
			patches = append(patches, lparx.Patch{
				Lo: []int{cuts[i]}, Hi: []int{cuts[i+1]}, Owner: i % nprocs,
			})
		}
		dec, err := lparx.NewDecomposition(nprocs, patches)
		if err != nil {
			t.Fatal(err)
		}
		s.obj = lparx.NewGridTyped(dec, p.Rank(), et)
		if m < 0 {
			m = rng.Intn(n/2) + 1
		}
		lo := rng.Intn(n - m + 1)
		s.set = core.NewSetOfRegions(lparx.BoxRegion{Lo: []int{lo}, Hi: []int{lo + m}})
		for k := 0; k < m; k++ {
			s.elemAt = append(s.elemAt, int32(lo+k))
		}
		full = core.NewSetOfRegions(lparx.BoxRegion{Lo: []int{0}, Hi: []int{n}})
		s.lib = lparx.Library

	default:
		t.Fatalf("unknown kind %q", kind)
	}
	s.mem = s.obj.LocalMem()
	if s.mem.Elem() != et {
		t.Fatalf("%s object carries %v, want %v", kind, s.mem.Elem(), et)
	}
	for _, r := range s.lib.OwnedPositions(ctx, s.obj, full, nil) {
		for k := int32(0); k < r.Count; k++ {
			s.owned = append(s.owned, posLoc{Pos: r.Pos + k, Off: r.Off + k*r.Stride})
		}
	}
	return s
}

// fill writes f(globalElem)+scalarIndex into every owned scalar.
func (s *typedSide) fill(f func(g int32) float64) {
	w := s.mem.Elem().Words
	for _, pl := range s.owned {
		for j := 0; j < w; j++ {
			s.mem.SetF(int(pl.Off)*w+j, f(pl.Pos)+float64(j))
		}
	}
}

// snapshot gathers every scalar of every element on every process,
// keyed by globalElem*maxWords+scalarIndex.
func (s *typedSide) snapshot(comm *mpsim.Comm) map[int64]float64 {
	w := s.mem.Elem().Words
	var wr codec.Writer
	for _, pl := range s.owned {
		for j := 0; j < w; j++ {
			wr.PutInt32(pl.Pos)
			wr.PutInt32(int32(j))
			wr.PutFloat64(s.mem.GetF(int(pl.Off)*w + j))
		}
	}
	out := map[int64]float64{}
	for _, part := range comm.Allgather(wr.Bytes()) {
		r := codec.NewReader(part)
		for r.Remaining() > 0 {
			g := int64(r.Int32())
			j := int64(r.Int32())
			out[g*maxWords+j] = r.Float64()
		}
	}
	return out
}

// runTypedOp executes one typed transfer and verifies every scalar of
// every selected element.
func runTypedOp(t *testing.T, srcKind, dstKind string, et core.ElemType, op string, method core.Method, n int, seed int64) {
	nprocs := int(seed%2) + 2
	var mismatch string
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		rng := rand.New(rand.NewSource(seed * 1201))
		ctx := core.NewCtx(p, p.Comm())
		src := buildTypedSide(t, rng, srcKind, ctx, p, n, -1, et)
		dst := buildTypedSide(t, rng, dstKind, ctx, p, n, src.set.Size(), et)
		f := func(g int32) float64 { return float64(g)*3 + 1 }
		h := func(g int32) float64 { return float64(g)*2 + 40 }
		src.fill(f)
		if op == "add" {
			dst.fill(h)
		}
		sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
			&core.Spec{Lib: src.lib, Obj: src.obj, Set: src.set, Ctx: ctx},
			&core.Spec{Lib: dst.lib, Obj: dst.obj, Set: dst.set, Ctx: ctx},
			method)
		if err != nil {
			mismatch = fmt.Sprintf("ComputeSchedule: %v", err)
			return
		}
		if sched.Elem() != et {
			mismatch = fmt.Sprintf("schedule carries %v, want %v", sched.Elem(), et)
			return
		}
		var snap map[int64]float64
		switch op {
		case "copy":
			sched.Move(src.obj, dst.obj)
			snap = dst.snapshot(p.Comm())
		case "add":
			sched.MoveAdd(src.obj, dst.obj)
			snap = dst.snapshot(p.Comm())
		case "reverse":
			sched.Move(src.obj, dst.obj)
			src.fill(func(int32) float64 { return -1 }) // wipe
			sched.MoveReverse(src.obj, dst.obj)
			snap = src.snapshot(p.Comm())
		}
		if p.Rank() != 0 {
			return
		}
		w := et.Words
		for k := range src.elemAt {
			gs, gd := src.elemAt[k], dst.elemAt[k]
			for j := 0; j < w; j++ {
				var g int32
				var want float64
				switch op {
				case "copy":
					g, want = gd, f(gs)+float64(j)
				case "add":
					g, want = gd, h(gd)+f(gs)+2*float64(j)
				case "reverse":
					g, want = gs, f(gs)+float64(j)
				}
				if got := snap[int64(g)*maxWords+int64(j)]; got != want {
					mismatch = fmt.Sprintf("position %d scalar %d: element %d = %g, want %g",
						k, j, g, got, want)
					return
				}
			}
		}
	})
	if mismatch != "" {
		t.Fatal(mismatch)
	}
}

// TestDtypeCrossLibrarySweep moves every element type through every
// library pairing with every move flavour.
func TestDtypeCrossLibrarySweep(t *testing.T) {
	const n = 24
	seed := int64(7000)
	for _, et := range dtypes {
		for i, srcKind := range kinds {
			for j, dstKind := range kinds {
				for _, op := range []string{"copy", "add", "reverse"} {
					seed++
					method := core.Cooperation
					if (i+j)%2 == 1 {
						method = core.Duplication
					}
					et, srcKind, dstKind, op, caseSeed := et, srcKind, dstKind, op, seed
					t.Run(fmt.Sprintf("%v/%s-to-%s-%s", et, srcKind, dstKind, op), func(t *testing.T) {
						runTypedOp(t, srcKind, dstKind, et, op, method, n, caseSeed)
					})
				}
			}
		}
	}
}

// TestDtypeWrongTypePanics pins the executor guard end-to-end: a
// schedule built for float64 arrays refuses a same-width int64 array.
func TestDtypeWrongTypePanics(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		dist := hpfrt.BlockVector(16, p.Size())
		src := hpfrt.NewArray(dist, p.Rank())
		dst := hpfrt.NewArray(dist, p.Rank())
		set := core.NewSetOfRegions(gidx.FullSection(gidx.Shape{16}))
		sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
			&core.Spec{Lib: hpfrt.Library, Obj: src, Set: set, Ctx: ctx},
			&core.Spec{Lib: hpfrt.Library, Obj: dst, Set: set, Ctx: ctx},
			core.Cooperation)
		if err != nil {
			t.Fatal(err)
		}
		wrong := &hpfrt.Array{Array: distarray.NewArrayTyped(dist, p.Rank(), core.Int64)}
		defer func() {
			if recover() == nil {
				t.Error("float64 schedule accepted an int64 object")
			}
		}()
		sched.Move(src, wrong)
	})
}

// runChaosTyped is chaosRun for a typed transfer: one sweep case under
// an optional fault injector, returning rank 0's verification snapshot
// and the run stats.
func runChaosTyped(t *testing.T, srcKind, dstKind string, et core.ElemType, op string, method core.Method, seed int64, inj mpsim.FaultInjector) (map[int64]float64, *mpsim.Stats) {
	t.Helper()
	const n, nprocs = 24, 3
	var snap map[int64]float64
	var mismatch string
	cfg := mpsim.Config{
		Machine:  mpsim.SP2(),
		Programs: []mpsim.ProgramSpec{{Name: "spmd", Procs: nprocs, Body: nil}},
	}
	if inj != nil {
		cfg.Fault = inj
		cfg.Reliable = true
	}
	cfg.Programs[0].Body = func(p *mpsim.Proc) {
		rng := rand.New(rand.NewSource(seed))
		ctx := core.NewCtx(p, p.Comm())
		src := buildTypedSide(t, rng, srcKind, ctx, p, n, -1, et)
		dst := buildTypedSide(t, rng, dstKind, ctx, p, n, src.set.Size(), et)
		f := func(g int32) float64 { return float64(g)*3 + 2 }
		h := func(g int32) float64 { return float64(g) + 50 }
		src.fill(f)
		if op == "add" {
			dst.fill(h)
		}
		sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
			&core.Spec{Lib: src.lib, Obj: src.obj, Set: src.set, Ctx: ctx},
			&core.Spec{Lib: dst.lib, Obj: dst.obj, Set: dst.set, Ctx: ctx},
			method)
		if err != nil {
			mismatch = fmt.Sprintf("ComputeSchedule: %v", err)
			return
		}
		switch op {
		case "copy":
			if r := sched.Move(src.obj, dst.obj); !r.OK() {
				mismatch = fmt.Sprintf("move failed peers: %v", r.FailedPeers)
				return
			}
		case "add":
			if r := sched.MoveAdd(src.obj, dst.obj); !r.OK() {
				mismatch = fmt.Sprintf("moveadd failed peers: %v", r.FailedPeers)
				return
			}
		case "reverse":
			sched.Move(src.obj, dst.obj)
			src.fill(func(int32) float64 { return -1 })
			if r := sched.MoveReverse(src.obj, dst.obj); !r.OK() {
				mismatch = fmt.Sprintf("reverse move failed peers: %v", r.FailedPeers)
				return
			}
		}
		var s map[int64]float64
		if op == "reverse" {
			s = src.snapshot(p.Comm())
		} else {
			s = dst.snapshot(p.Comm())
		}
		if p.Rank() == 0 {
			snap = s
		}
	}
	st := mpsim.Run(cfg)
	if mismatch != "" {
		t.Fatal(mismatch)
	}
	return snap, st
}

// TestChaosDtypeSweep re-runs a slice of the chaos harness on every
// element type: five pairings each for float64, float32, int64, int32
// and byte, under the configured fault profile, asserting results
// bit-identical to the fault-free run and that faults actually fired.
// (Byte and int32 payloads stay within their ranges by construction,
// so the clean and faulty runs truncate identically.)
func TestChaosDtypeSweep(t *testing.T) {
	seed := chaosSeed(t)
	profName := chaosProfile()
	mkInjector := func() mpsim.FaultInjector {
		prof, err := faultsim.ByName(profName, seed)
		if err != nil {
			t.Fatal(err)
		}
		if prof == nil {
			t.Skipf("CHAOS_PROFILE=%s injects nothing", profName)
		}
		prof.Partitions = append(prof.Partitions, faultsim.Partition{Start: 0.002, End: 0.010, Ranks: []int{0}})
		return prof
	}
	var drops, retransmits int64
	ops := []string{"copy", "add", "reverse"}
	for ei, et := range []core.ElemType{core.Float64, core.Float32, core.Int64, core.Int32, core.Byte} {
		for i, srcKind := range kinds {
			dstKind := kinds[(i+1+ei%(len(kinds)-1))%len(kinds)]
			op := ops[i%len(ops)]
			method := core.Cooperation
			if i%2 == 1 {
				method = core.Duplication
			}
			et, srcKind, dstKind, op, method := et, srcKind, dstKind, op, method
			t.Run(fmt.Sprintf("%v/%s-to-%s-%s", et, srcKind, dstKind, op), func(t *testing.T) {
				caseSeed := int64(seed)*200 + int64(ei*len(kinds)+i)
				want, _ := runChaosTyped(t, srcKind, dstKind, et, op, method, caseSeed, nil)
				got, st := runChaosTyped(t, srcKind, dstKind, et, op, method, caseSeed, mkInjector())
				if len(got) != len(want) {
					t.Fatalf("snapshot sizes differ: faulty %d, clean %d", len(got), len(want))
				}
				for g, v := range want {
					if got[g] != v {
						t.Fatalf("scalar key %d = %g under faults, want %g (bit-identical)", g, got[g], v)
					}
				}
				drops += st.TotalDrops()
				retransmits += st.TotalRetransmits()
			})
		}
	}
	if drops == 0 || retransmits == 0 {
		t.Errorf("dtype chaos totals: drops=%d retransmits=%d; the profile must actually inject faults", drops, retransmits)
	}
}
