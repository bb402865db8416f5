package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"metachaos/internal/codec"
	"metachaos/internal/mpsim"
)

// testLib is a minimal data-parallel "library" for exercising the
// Meta-Chaos machinery in isolation: a 1-D array of G elements block
// distributed over the program's processes, with index-list regions.
// Its dereference functions are pure arithmetic (no communication), so
// tests can run on the Ideal machine and assert exact message counts.
type testLib struct{}

func (testLib) Name() string { return "testlib" }

type testObj struct {
	global int
	nprocs int
	words  int
	rank   int
	data   []float64 // nil for descriptor-only remote views
}

func (o *testObj) Elem() ElemType { return Float64Elems(o.words) }
func (o *testObj) LocalMem() Mem  { return Mem{et: o.Elem(), f64: o.data} }

func (o *testObj) block() int { return (o.global + o.nprocs - 1) / o.nprocs }

func (o *testObj) localCount(rank int) int {
	b := o.block()
	lo := rank * b
	if lo >= o.global {
		return 0
	}
	hi := lo + b
	if hi > o.global {
		hi = o.global
	}
	return hi - lo
}

func newTestObj(global, nprocs, words, rank int) *testObj {
	o := &testObj{global: global, nprocs: nprocs, words: words, rank: rank}
	o.data = make([]float64, words*o.localCount(rank))
	return o
}

// fillDistinct writes a globally unique value into every word.
func (o *testObj) fillDistinct(salt float64) {
	base := o.rank * o.block()
	for i := range o.data {
		elem := base + i/o.words
		o.data[i] = salt + float64(elem)*10 + float64(i%o.words)
	}
}

type testRegion []int32

func (r testRegion) Size() int { return len(r) }

// locate returns the owner and local offset of global element g.
func (o *testObj) locate(g int32) (proc, off int32) {
	b := int32(o.block())
	return g / b, g % b
}

// testLib's answers fuse runs with AppendLoc in a tail of out, so
// nothing fuses into out's own runs.
func (testLib) DerefRange(ctx *Ctx, obj DistObject, set *SetOfRegions, lo, hi int, out []LocRun) []LocRun {
	o := obj.(*testObj)
	ans := out[len(out):]
	for at := lo; at < hi; {
		span := set.SpanAt(at, hi)
		at = span.Base + span.Hi
		r := set.Region(span.Index).(testRegion)
		for k := span.Lo; k < span.Hi; k++ {
			proc, off := o.locate(r[k])
			ans = AppendLoc(ans, int32(span.Base+k), proc, off)
		}
	}
	ctx.P.ChargeDeref(hi - lo)
	return append(out, ans...)
}

func (testLib) DerefAt(ctx *Ctx, obj DistObject, set *SetOfRegions, at []PosRange, out []LocRun) []LocRun {
	o := obj.(*testObj)
	ans := out[len(out):]
	n := 0
	for _, iv := range at {
		for pos := iv.Lo; pos < iv.Hi; pos++ {
			ri, inner := set.RegionOf(int(pos))
			proc, off := o.locate(set.Region(ri).(testRegion)[inner])
			ans = AppendLoc(ans, pos, proc, off)
			n++
		}
	}
	ctx.P.ChargeDeref(n)
	return append(out, ans...)
}

func (testLib) OwnedPositions(ctx *Ctx, obj DistObject, set *SetOfRegions, out []LocRun) []LocRun {
	o := obj.(*testObj)
	ans := out[len(out):]
	pos := 0
	for i := 0; i < set.Len(); i++ {
		r := set.Region(i).(testRegion)
		for _, g := range r {
			if proc, off := o.locate(g); int(proc) == o.rank {
				ans = AppendLoc(ans, int32(pos), proc, off)
			}
			pos++
		}
	}
	ctx.P.ChargeDeref(pos)
	return append(out, ans...)
}

func (testLib) EncodeDescriptor(ctx *Ctx, obj DistObject) ([]byte, bool) {
	o := obj.(*testObj)
	var w codec.Writer
	w.PutInts([]int{o.global, o.nprocs, o.words})
	return w.Bytes(), true
}

func (testLib) DecodeDescriptor(data []byte) (DistObject, error) {
	v := codec.NewReader(data).Ints()
	return &testObj{global: v[0], nprocs: v[1], words: v[2], rank: -1}, nil
}

func (testLib) EncodeRegion(r Region) []byte {
	var w codec.Writer
	w.PutInt32s([]int32(r.(testRegion)))
	return w.Bytes()
}

func (testLib) DecodeRegion(data []byte) (Region, error) {
	return testRegion(codec.NewReader(data).Int32s()), nil
}

// noCodecLib delegates only the core Library methods to testLib,
// deliberately omitting the descriptor/region codecs, to exercise the
// duplication-unsupported error path.
type noCodecLib struct{}

func (noCodecLib) Name() string { return "testlib-nocodec" }
func (noCodecLib) DerefRange(ctx *Ctx, o DistObject, set *SetOfRegions, lo, hi int, out []LocRun) []LocRun {
	return testLib{}.DerefRange(ctx, o, set, lo, hi, out)
}
func (noCodecLib) DerefAt(ctx *Ctx, o DistObject, set *SetOfRegions, at []PosRange, out []LocRun) []LocRun {
	return testLib{}.DerefAt(ctx, o, set, at, out)
}
func (noCodecLib) OwnedPositions(ctx *Ctx, o DistObject, set *SetOfRegions, out []LocRun) []LocRun {
	return testLib{}.OwnedPositions(ctx, o, set, out)
}

func init() {
	RegisterLibrary(testLib{})
	RegisterLibrary(noCodecLib{})
}

// gatherObj reconstructs the full global content of a test object on
// every process (test helper, outside the timed paths).
func gatherObj(c *mpsim.Comm, o *testObj) []float64 {
	parts := c.Allgather(codec.Float64sToBytes(o.data))
	var all []float64
	for _, part := range parts {
		all = append(all, codec.BytesToFloat64s(part)...)
	}
	return all
}

// checkCopy verifies dst[dstIdx[k]] == src[srcIdx[k]] for all k and
// that untouched destination elements remain zero.
func checkCopy(t *testing.T, srcAll, dstAll []float64, words int, srcIdx, dstIdx []int32) {
	t.Helper()
	touched := make(map[int32]bool, len(dstIdx))
	for k := range srcIdx {
		touched[dstIdx[k]] = true
		for w := 0; w < words; w++ {
			got := dstAll[int(dstIdx[k])*words+w]
			want := srcAll[int(srcIdx[k])*words+w]
			if got != want {
				t.Fatalf("element %d word %d: dst[%d]=%g want src[%d]=%g",
					k, w, dstIdx[k], got, srcIdx[k], want)
			}
		}
	}
	for e := 0; e < len(dstAll)/words; e++ {
		if !touched[int32(e)] {
			for w := 0; w < words; w++ {
				if dstAll[e*words+w] != 0 {
					t.Fatalf("untouched dst element %d was overwritten to %g", e, dstAll[e*words+w])
				}
			}
		}
	}
}

func regions(idx []int32, pieces int) []Region {
	var out []Region
	per := (len(idx) + pieces - 1) / pieces
	for i := 0; i < len(idx); i += per {
		end := i + per
		if end > len(idx) {
			end = len(idx)
		}
		out = append(out, testRegion(idx[i:end]))
	}
	return out
}

func runSingleProgram(t *testing.T, nprocs, global, words int, srcIdx, dstIdx []int32, method Method) *mpsim.Stats {
	t.Helper()
	return mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(global, nprocs, words, p.Rank())
		dst := newTestObj(global, nprocs, words, p.Rank())
		src.fillDistinct(1000)

		coupling := SingleProgram(p.Comm())
		srcSpec := &Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(regions(srcIdx, 3)...), Ctx: ctx}
		dstSpec := &Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(regions(dstIdx, 2)...), Ctx: ctx}
		sched, err := ComputeSchedule(coupling, srcSpec, dstSpec, method)
		if err != nil {
			t.Errorf("ComputeSchedule: %v", err)
			return
		}
		sched.Move(src, dst)

		srcAll := gatherObj(p.Comm(), src)
		dstAll := gatherObj(p.Comm(), dst)
		if p.Rank() == 0 {
			checkCopy(t, srcAll, dstAll, words, srcIdx, dstIdx)
		}

		// Reverse move restores the source (here: overwrites src with
		// what dst holds at the mapped elements, which equals the
		// original source values).
		sched.MoveReverse(src, dst)
		srcAll2 := gatherObj(p.Comm(), src)
		if p.Rank() == 0 {
			for i := range srcAll {
				if srcAll[i] != srcAll2[i] {
					t.Errorf("reverse move changed src word %d: %g -> %g", i, srcAll[i], srcAll2[i])
					break
				}
			}
		}
	})
}

func seqIdx(lo, n, step int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(lo + i*step)
	}
	return out
}

func TestSingleProgramCooperation(t *testing.T) {
	srcIdx := seqIdx(10, 40, 2) // elements 10,12,...,88
	dstIdx := seqIdx(3, 40, 1)  // elements 3..42
	runSingleProgram(t, 4, 100, 1, srcIdx, dstIdx, Cooperation)
}

func TestSingleProgramDuplication(t *testing.T) {
	srcIdx := seqIdx(10, 40, 2)
	dstIdx := seqIdx(3, 40, 1)
	runSingleProgram(t, 4, 100, 1, srcIdx, dstIdx, Duplication)
}

func TestMultiWordElements(t *testing.T) {
	srcIdx := seqIdx(0, 30, 3)
	dstIdx := seqIdx(50, 30, 1)
	runSingleProgram(t, 3, 95, 4, srcIdx, dstIdx, Cooperation)
	runSingleProgram(t, 3, 95, 4, srcIdx, dstIdx, Duplication)
}

func TestPermutedMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 64
	srcIdx := make([]int32, n)
	dstIdx := make([]int32, n)
	srcPerm := rng.Perm(200)
	dstPerm := rng.Perm(200)
	for i := 0; i < n; i++ {
		srcIdx[i] = int32(srcPerm[i])
		dstIdx[i] = int32(dstPerm[i])
	}
	for _, m := range []Method{Cooperation, Duplication} {
		runSingleProgram(t, 5, 200, 1, srcIdx, dstIdx, m)
	}
}

func TestMethodsProduceEquivalentSchedules(t *testing.T) {
	srcIdx := seqIdx(7, 50, 3)
	dstIdx := seqIdx(0, 50, 4)
	counts := make(map[Method][3]int)
	for _, m := range []Method{Cooperation, Duplication} {
		m := m
		mpsim.RunSPMD(mpsim.Ideal(), 4, func(p *mpsim.Proc) {
			ctx := NewCtx(p, p.Comm())
			src := newTestObj(256, 4, 1, p.Rank())
			dst := newTestObj(256, 4, 1, p.Rank())
			coupling := SingleProgram(p.Comm())
			sched, err := ComputeSchedule(coupling,
				&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(srcIdx)), Ctx: ctx},
				&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(dstIdx)), Ctx: ctx}, m)
			if err != nil {
				t.Errorf("%v: %v", m, err)
				return
			}
			lanes := func(pls []PeerList) int64 {
				n := 0
				for _, pl := range pls {
					n += pl.Len()
				}
				return int64(n)
			}
			tot := [3]int{
				int(p.Comm().AllreduceInt64(mpsim.OpSum, lanes(sched.Sends))),
				int(p.Comm().AllreduceInt64(mpsim.OpSum, lanes(sched.Recvs))),
				int(p.Comm().AllreduceInt64(mpsim.OpSum, int64(sched.LocalCount()))),
			}
			if p.Rank() == 0 {
				counts[m] = tot
			}
		})
	}
	if counts[Cooperation] != counts[Duplication] {
		t.Errorf("methods disagree: cooperation=%v duplication=%v",
			counts[Cooperation], counts[Duplication])
	}
	c := counts[Cooperation]
	if c[0] != c[1] {
		t.Errorf("send total %d != recv total %d", c[0], c[1])
	}
	if c[0]+c[2] != 50 {
		t.Errorf("moved %d elements, want 50", c[0]+c[2])
	}
}

func TestScheduleMessageAggregation(t *testing.T) {
	// Every source element lives on rank 0 and every destination on
	// rank 3, so exactly one data message must flow per move.
	st := mpsim.RunSPMD(mpsim.Ideal(), 4, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(100, 4, 1, p.Rank()) // block 25: rank 0 owns 0..24
		dst := newTestObj(100, 4, 1, p.Rank()) // rank 3 owns 75..99
		src.fillDistinct(0)
		coupling := SingleProgram(p.Comm())
		sched, err := ComputeSchedule(coupling,
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(seqIdx(0, 20, 1))), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(seqIdx(75, 20, 1))), Ctx: ctx},
			Duplication) // duplication sends no schedule fragments
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		before := p.Clock()
		_ = before
		sched.Move(src, dst)
		if p.Rank() == 0 && (len(sched.Sends) != 1 || sched.Sends[0].Len() != 20) {
			t.Errorf("rank 0 sends: %+v", sched.Sends)
		}
		if p.Rank() == 3 && (len(sched.Recvs) != 1 || sched.Recvs[0].Len() != 20) {
			t.Errorf("rank 3 recvs: %+v", sched.Recvs)
		}
	})
	// Schedule build with duplication on testlib needs no messages; the
	// metadata exchange uses 2 bcasts and the move exactly 1 message.
	// Each bcast on 4 procs is 3 messages: total = 6 + 1.
	if st.TotalMsgs() != 7 {
		t.Errorf("total messages = %d, want 7 (6 bcast + 1 aggregated move)", st.TotalMsgs())
	}
}

func TestScheduleReuse(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 3, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(60, 3, 1, p.Rank())
		dst := newTestObj(60, 3, 1, p.Rank())
		coupling := SingleProgram(p.Comm())
		sched, err := ComputeSchedule(coupling,
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(seqIdx(0, 30, 2))), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(seqIdx(30, 30, 1))), Ctx: ctx},
			Cooperation)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		for iter := 0; iter < 5; iter++ {
			src.fillDistinct(float64(1000 * iter))
			sched.Move(src, dst)
			srcAll := gatherObj(p.Comm(), src)
			dstAll := gatherObj(p.Comm(), dst)
			if p.Rank() == 0 {
				for k := 0; k < 30; k++ {
					if dstAll[30+k] != srcAll[2*k] {
						t.Errorf("iter %d: dst[%d]=%g want %g", iter, 30+k, dstAll[30+k], srcAll[2*k])
					}
				}
			}
		}
	})
}

func runTwoPrograms(t *testing.T, nSrc, nDst int, method Method) {
	t.Helper()
	global := 120
	words := 2
	srcIdx := seqIdx(5, 50, 2)
	dstIdx := seqIdx(60, 50, 1)

	var srcAll, dstAll []float64
	mpsim.Run(mpsim.Config{
		Machine: mpsim.Ideal(),
		Programs: []mpsim.ProgramSpec{
			{Name: "psrc", Procs: nSrc, Body: func(p *mpsim.Proc) {
				ctx := NewCtx(p, p.Comm())
				obj := newTestObj(global, nSrc, words, p.Rank())
				obj.fillDistinct(7000)
				coupling, err := CoupleByName(p, "psrc", "pdst")
				if err != nil {
					t.Errorf("couple: %v", err)
					return
				}
				sched, err := ComputeSchedule(coupling,
					&Spec{Lib: testLib{}, Obj: obj, Set: NewSetOfRegions(regions(srcIdx, 2)...), Ctx: ctx},
					nil, method)
				if err != nil {
					t.Errorf("src ComputeSchedule: %v", err)
					return
				}
				sched.MoveSend(obj)
				all := gatherObj(p.Comm(), obj)
				if p.Rank() == 0 {
					srcAll = all
				}
				// And use the schedule in reverse.
				sched.MoveReverseRecv(obj)
			}},
			{Name: "pdst", Procs: nDst, Body: func(p *mpsim.Proc) {
				ctx := NewCtx(p, p.Comm())
				obj := newTestObj(global, nDst, words, p.Rank())
				coupling, err := CoupleByName(p, "psrc", "pdst")
				if err != nil {
					t.Errorf("couple: %v", err)
					return
				}
				sched, err := ComputeSchedule(coupling, nil,
					&Spec{Lib: testLib{}, Obj: obj, Set: NewSetOfRegions(regions(dstIdx, 3)...), Ctx: ctx}, method)
				if err != nil {
					t.Errorf("dst ComputeSchedule: %v", err)
					return
				}
				sched.MoveRecv(obj)
				all := gatherObj(p.Comm(), obj)
				if p.Rank() == 0 {
					dstAll = all
				}
				sched.MoveReverseSend(obj)
			}},
		},
	})
	if srcAll == nil || dstAll == nil {
		t.Fatal("missing gathered results")
	}
	checkCopy(t, srcAll, dstAll, words, srcIdx, dstIdx)
}

func TestTwoProgramsCooperation(t *testing.T) {
	for _, sizes := range [][2]int{{2, 2}, {3, 2}, {2, 4}, {1, 3}} {
		t.Run(fmt.Sprintf("%dx%d", sizes[0], sizes[1]), func(t *testing.T) {
			runTwoPrograms(t, sizes[0], sizes[1], Cooperation)
		})
	}
}

func TestTwoProgramsDuplication(t *testing.T) {
	for _, sizes := range [][2]int{{2, 2}, {3, 2}} {
		t.Run(fmt.Sprintf("%dx%d", sizes[0], sizes[1]), func(t *testing.T) {
			runTwoPrograms(t, sizes[0], sizes[1], Duplication)
		})
	}
}

func TestSizeMismatchError(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(50, 2, 1, p.Rank())
		dst := newTestObj(50, 2, 1, p.Rank())
		_, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(seqIdx(0, 10, 1))), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(seqIdx(0, 11, 1))), Ctx: ctx},
			Cooperation)
		if err == nil || !strings.Contains(err.Error(), "elements") {
			t.Errorf("want size mismatch error, got %v", err)
		}
	})
}

func TestWordMismatchError(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(50, 2, 1, p.Rank())
		dst := newTestObj(50, 2, 2, p.Rank())
		_, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(seqIdx(0, 10, 1))), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(seqIdx(0, 10, 1))), Ctx: ctx},
			Cooperation)
		if err == nil || !strings.Contains(err.Error(), "elements are") {
			t.Errorf("want element type mismatch error, got %v", err)
		}
	})
}

func TestDuplicationWithoutCodecsFails(t *testing.T) {
	mpsim.Run(mpsim.Config{
		Machine: mpsim.Ideal(),
		Programs: []mpsim.ProgramSpec{
			{Name: "a", Procs: 1, Body: func(p *mpsim.Proc) {
				ctx := NewCtx(p, p.Comm())
				obj := newTestObj(20, 1, 1, 0)
				coupling, _ := CoupleByName(p, "a", "b")
				_, err := ComputeSchedule(coupling,
					&Spec{Lib: noCodecLib{}, Obj: obj, Set: NewSetOfRegions(testRegion(seqIdx(0, 5, 1))), Ctx: ctx},
					nil, Duplication)
				if err == nil || !strings.Contains(err.Error(), "cooperation") {
					t.Errorf("want unsupported-duplication error, got %v", err)
				}
			}},
			{Name: "b", Procs: 1, Body: func(p *mpsim.Proc) {
				ctx := NewCtx(p, p.Comm())
				obj := newTestObj(20, 1, 1, 0)
				coupling, _ := CoupleByName(p, "a", "b")
				_, err := ComputeSchedule(coupling, nil,
					&Spec{Lib: noCodecLib{}, Obj: obj, Set: NewSetOfRegions(testRegion(seqIdx(0, 5, 1))), Ctx: ctx},
					Duplication)
				if err == nil {
					t.Error("want error on destination side too")
				}
			}},
		},
	})
}

func TestSetOfRegions(t *testing.T) {
	set := NewSetOfRegions(testRegion{1, 2, 3}, testRegion{10}, testRegion{20, 21})
	if set.Size() != 6 || set.Len() != 3 {
		t.Fatalf("Size=%d Len=%d", set.Size(), set.Len())
	}
	if set.Base(1) != 3 || set.Base(2) != 4 {
		t.Errorf("bases: %d %d", set.Base(1), set.Base(2))
	}
	ri, inner := set.RegionOf(4)
	if ri != 2 || inner != 0 {
		t.Errorf("RegionOf(4)=(%d,%d)", ri, inner)
	}
	ri, inner = set.RegionOf(3)
	if ri != 1 || inner != 0 {
		t.Errorf("RegionOf(3)=(%d,%d)", ri, inner)
	}
	// Walking [2, 5) span by span visits each region's part in order.
	var spans []Span
	for lo := 2; lo < 5; {
		sp := set.SpanAt(lo, 5)
		spans = append(spans, sp)
		lo = sp.Base + sp.Hi
	}
	if len(spans) != 3 {
		t.Fatalf("spans=%v", spans)
	}
	if spans[0] != (Span{Index: 0, Lo: 2, Hi: 3, Base: 0}) ||
		spans[1] != (Span{Index: 1, Lo: 0, Hi: 1, Base: 3}) ||
		spans[2] != (Span{Index: 2, Lo: 0, Hi: 1, Base: 4}) {
		t.Errorf("spans=%v", spans)
	}
}

func TestLibraryRegistry(t *testing.T) {
	if _, err := LookupLibrary("testlib"); err != nil {
		t.Errorf("testlib not found: %v", err)
	}
	// A failed lookup lists the registered names.
	if _, err := LookupLibrary("missing"); err == nil {
		t.Error("missing library lookup should fail")
	} else if !strings.Contains(err.Error(), "testlib") {
		t.Errorf("lookup error %q does not name testlib", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration should panic")
			}
		}()
		RegisterLibrary(testLib{})
	}()
}

func TestMethodStringAndAccessors(t *testing.T) {
	if Cooperation.String() != "cooperation" || Duplication.String() != "duplication" {
		t.Error("method strings")
	}
	if Method(9).String() == "" {
		t.Error("unknown method string empty")
	}
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(10, 1, 2, 0)
		dst := newTestObj(10, 1, 2, 0)
		sched, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(seqIdx(0, 5, 1))), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(seqIdx(5, 5, 1))), Ctx: ctx},
			Cooperation)
		if err != nil {
			t.Fatal(err)
		}
		if sched.Elem().Words != 2 {
			t.Errorf("Elem().Words=%d", sched.Elem().Words)
		}
	})
}

func TestCoupleByNameErrors(t *testing.T) {
	mpsim.Run(mpsim.Config{
		Machine: mpsim.Ideal(),
		Programs: []mpsim.ProgramSpec{
			{Name: "only", Procs: 1, Body: func(p *mpsim.Proc) {
				if _, err := CoupleByName(p, "missing", "only"); err == nil {
					t.Error("unknown source program accepted")
				}
				if _, err := CoupleByName(p, "only", "missing"); err == nil {
					t.Error("unknown destination program accepted")
				}
				c, err := CoupleByName(p, "only", "only")
				if err != nil || c.Union.Size() != 1 {
					t.Errorf("self-coupling: %v", err)
				}
			}},
		},
	})
}

func TestNewCouplingErrors(t *testing.T) {
	mpsim.Run(mpsim.Config{
		Machine: mpsim.Ideal(),
		Programs: []mpsim.ProgramSpec{
			{Name: "x", Procs: 2, Body: func(p *mpsim.Proc) {
				if _, err := NewCoupling(p, nil, []int{0}); err == nil {
					t.Error("empty source group accepted")
				}
				if _, err := NewCoupling(p, []int{0, 0}, []int{1}); err == nil {
					t.Error("duplicate rank accepted")
				}
				if _, err := NewCoupling(p, []int{0}, []int{0}); err == nil {
					t.Error("overlapping programs accepted")
				}
			}},
		},
	})
}

// TestGoldenCommunicationPattern locks down the exact message pattern
// of a fixed transfer using the event trace: a regression guard on the
// schedule builder and executor.
func TestGoldenCommunicationPattern(t *testing.T) {
	st := mpsim.Run(mpsim.Config{
		Machine: mpsim.Ideal(),
		Trace:   true,
		Programs: []mpsim.ProgramSpec{{Name: "g", Procs: 2, Body: func(p *mpsim.Proc) {
			ctx := NewCtx(p, p.Comm())
			src := newTestObj(8, 2, 1, p.Rank())
			dst := newTestObj(8, 2, 1, p.Rank())
			src.fillDistinct(0)
			sched, err := ComputeSchedule(SingleProgram(p.Comm()),
				&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(seqIdx(0, 4, 1))), Ctx: ctx},
				&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(seqIdx(4, 4, 1))), Ctx: ctx},
				Duplication)
			if err != nil {
				t.Errorf("%v", err)
				return
			}
			sched.Move(src, dst)
		}}},
	})
	// Elements 0..3 live on rank 0, 4..7 on rank 1: the move is one
	// 32-byte message 0 -> 1; the metadata exchange is two 12-byte
	// broadcasts (one message each at P=2).
	var moves []mpsim.Event
	for _, e := range st.Trace.Events {
		if e.Kind == mpsim.EvSend && e.Bytes == 32 {
			moves = append(moves, e)
		}
	}
	if len(moves) != 1 || moves[0].Rank != 0 || moves[0].Peer != 1 {
		t.Errorf("move messages: %+v", moves)
	}
	if st.TotalMsgs() != 3 {
		t.Errorf("total messages %d, want 3 (2 metadata + 1 move)", st.TotalMsgs())
	}
}
