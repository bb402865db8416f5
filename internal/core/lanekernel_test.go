package core

import (
	"fmt"
	"math/rand"
	"testing"

	"metachaos/internal/bufpool"
	"metachaos/internal/codec"
)

// The lane kernels driven directly, without a world: packLane,
// unpackLane and localLane (so packRuns/unpackRuns/localRuns of every
// kind) against a reference that moves one scalar unit at a time
// through GetF/SetF/addUnit.

// localLane is moveLocal's kind switch without the schedule around it.
func localLane(from, to *Mem, local []LocalRun, w int, reverse bool, op int) {
	switch from.et.Kind {
	case KindFloat64:
		localRuns(from.f64, to.f64, local, w, reverse, op)
	case KindFloat32:
		localRuns(from.f32, to.f32, local, w, reverse, op)
	case KindInt64:
		localRuns(from.i64, to.i64, local, w, reverse, op)
	case KindInt32:
		localRuns(from.i32, to.i32, local, w, reverse, op)
	case KindByte:
		localRuns(from.by, to.by, local, w, reverse, op)
	}
}

// laneElems is the local storage size, in elements, of both test sides.
const laneElems = 24

// Two run lists over laneElems elements covering the same 13 elements'
// worth of positions in different shapes.  packRunList alternates views
// and staged stretches: stride 1, [stride 2, single, stride -1] staged
// back to back, stride 1, single.
var (
	packRunList = []Run{
		{Start: 2, Stride: 1, Count: 3},
		{Start: 8, Stride: 2, Count: 3},
		{Start: 15, Stride: 0, Count: 1},
		{Start: 23, Stride: -1, Count: 3},
		{Start: 5, Stride: 1, Count: 2},
		{Start: 0, Stride: 0, Count: 1},
	}
	unpackRunList = []Run{
		{Start: 20, Stride: -1, Count: 4},
		{Start: 0, Stride: 1, Count: 2},
		{Start: 9, Stride: 0, Count: 1},
		{Start: 4, Stride: 2, Count: 2},
		{Start: 10, Stride: 1, Count: 3},
		{Start: 23, Stride: 0, Count: 1},
	}
)

var laneKinds = []ElemKind{KindFloat64, KindFloat32, KindInt64, KindInt32, KindByte}

// filled returns storage for laneElems elements whose unit u holds
// mul*u+1: small integers, exact in every kind.
func filled(et ElemType, mul int) Mem {
	m := MakeMem(et, laneElems)
	for u := 0; u < m.Units(); u++ {
		m.SetF(u, float64(mul*u+1))
	}
	return m
}

// runUnits lists the scalar-unit offsets a run list visits, in order.
func runUnits(runs []Run, w int) []int {
	var out []int
	for _, run := range runs {
		for k := int32(0); k < run.Count; k++ {
			for j := 0; j < w; j++ {
				out = append(out, int(run.At(k))*w+j)
			}
		}
	}
	return out
}

// mustPanic runs f and fails unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestLaneKernelsMatchReference(t *testing.T) {
	trailer := []byte{0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee}
	pool := bufpool.New()
	for _, kind := range laneKinds {
		for _, w := range []int{1, 3} {
			et := ElemType{Kind: kind, Words: w}
			es := kind.Size()
			src := filled(et, 1)
			from := runUnits(packRunList, w)
			to := runUnits(unpackRunList, w)

			// The lane's wire bytes, by the reference: the visited units
			// laid out contiguously, then bulk-encoded.
			lin := MakeMem(ElemType{Kind: kind, Words: 1}, len(from))
			for k, u := range from {
				lin.SetF(k, src.GetF(u))
			}
			wire := lin.AppendTo(nil)

			var natural [][]byte // packLane's own segment list, views enabled
			for _, canView := range []bool{false, true} {
				if canView && !codec.HostLE() {
					continue
				}
				pay := pool.GetPayload()
				stage := packLane(pay, make([]byte, 0, len(wire)), &src, packRunList, w, canView)
				if got := pay.AppendTo(nil); string(got) != string(wire) {
					t.Errorf("%v canView=%v: packed % x, want % x", et, canView, got, wire)
				}
				wantStaged, wantSegs := len(wire), 1
				if canView {
					wantStaged, wantSegs = len(wire)-5*w*es, 4 // two stride-1 runs borrowed
					natural = append(natural, pay.Segments()...)
				}
				if len(stage) != wantStaged || len(pay.Segments()) != wantSegs {
					t.Errorf("%v canView=%v: staged %d bytes in %d segments, want %d in %d",
						et, canView, len(stage), len(pay.Segments()), wantStaged, wantSegs)
				}
			}

			// Every segmentation: packLane's own, and the flat bytes cut
			// in two at each unit boundary; always followed by a checksum
			// trailer the runs must not reach.
			segLists := [][][]byte{append(natural, trailer)}
			for c := 0; c <= len(from); c++ {
				var segs [][]byte
				for _, s := range [][]byte{wire[:c*es], wire[c*es:], trailer} {
					if len(s) > 0 { // a payload holds no empty segment
						segs = append(segs, s)
					}
				}
				segLists = append(segLists, segs)
			}
			for _, op := range []int{opCopy, opAdd} {
				want := filled(et, 2)
				for k, u := range to {
					if op == opAdd {
						addUnit(&want, u, lin.GetF(k))
					} else {
						want.SetF(u, lin.GetF(k))
					}
				}
				for i, segs := range segLists {
					dst := filled(et, 2)
					unpackLane(&dst, segs, unpackRunList, w, op)
					for u := 0; u < dst.Units(); u++ {
						if dst.GetF(u) != want.GetF(u) {
							t.Fatalf("%v op=%d segmentation %d: unit %d = %g, want %g", et, op, i, u, dst.GetF(u), want.GetF(u))
						}
					}
				}
			}

			dst := filled(et, 2)
			label := fmt.Sprint(et)
			if es > 1 {
				mustPanic(t, label+": segment cut mid-scalar", func() {
					unpackLane(&dst, [][]byte{wire[:es+1], wire[es+1:]}, unpackRunList, w, opCopy)
				})
			}
			mustPanic(t, label+": payload one unit short", func() {
				unpackLane(&dst, [][]byte{wire[:len(wire)-es]}, unpackRunList, w, opCopy)
			})
			outside := []Run{{Start: laneElems - 1, Stride: 1, Count: 2}}
			mustPanic(t, label+": unpacking a run outside storage", func() {
				unpackLane(&dst, [][]byte{wire}, outside, w, opCopy)
			})
			mustPanic(t, label+": packing a run outside storage", func() {
				packLane(pool.GetPayload(), make([]byte, 0, len(wire)), &src, outside, w, false)
			})
		}
	}
}

// TestStagedStretchIsOneSegment pins "one view per staged stretch": k
// staged runs between two borrowed views reach the receiver — which is
// handed the payload's own segment list — as three segments, not k+2.
func TestStagedStretchIsOneSegment(t *testing.T) {
	if !codec.HostLE() {
		t.Skip("views are only handed out on little-endian hosts")
	}
	src := filled(Float64Elems(1), 1)
	runs := []Run{{Start: 0, Stride: 1, Count: 4}}
	for k := int32(0); k < 7; k++ {
		runs = append(runs, Run{Start: 5 + 2*k, Stride: 0, Count: 1})
	}
	runs = append(runs, Run{Start: 20, Stride: 1, Count: 4})
	pay := bufpool.New().GetPayload()
	packLane(pay, make([]byte, 0, 7*8), &src, runs, 1, true)
	segs := pay.Segments()
	if len(segs) != 3 || len(segs[0]) != 32 || len(segs[1]) != 56 || len(segs[2]) != 32 {
		t.Fatalf("lane of view, 7 staged runs, view has %d segments, want 3 of 32, 56 and 32 bytes", len(segs))
	}
}

// randomRun draws a run of at most max elements that fits storage of
// elems elements: stride 1, strided either way, or a singleton.
func randomRun(rng *rand.Rand, elems, max int) Run {
	c, st := 1+rng.Intn(max), 0
	switch rng.Intn(4) {
	case 0:
		st = 1
	case 1:
		st = 2 + rng.Intn(3)
	case 2:
		st = -1 - rng.Intn(3)
	default:
		c = 1
	}
	a := st
	if a < 0 {
		a = -a
	}
	for c > 1 && a*(c-1) >= elems {
		c--
	}
	start := rng.Intn(elems - a*(c-1))
	if st < 0 {
		start += a * (c - 1)
	}
	return Run{Start: int32(start), Stride: int32(st), Count: int32(c)}
}

// randomRuns draws runs over elems elements until they hold n.
func randomRuns(rng *rand.Rand, elems, n int) []Run {
	var runs []Run
	for n > 0 {
		r := randomRun(rng, elems, min(n, 6))
		runs = append(runs, r)
		n -= int(r.Count)
	}
	return runs
}

// smallFill returns storage for elems elements of type et holding
// small integers, so that sums stay exact and in range in every kind.
func smallFill(et ElemType, elems, salt int) Mem {
	m := MakeMem(et, elems)
	for u := 0; u < m.Units(); u++ {
		m.SetF(u, float64((7*u+salt)%100))
	}
	return m
}

// sameUnits fails unless got and want hold the same values.
func sameUnits(t *testing.T, what string, got, want Mem) {
	t.Helper()
	for u := 0; u < want.Units(); u++ {
		if got.GetF(u) != want.GetF(u) {
			t.Fatalf("%s: unit %d = %g, want %g", what, u, got.GetF(u), want.GetF(u))
		}
	}
}

// FuzzLaneKernels drives the pack, unpack and local-copy kernels over
// random run lists of every kind and width, copy and add, with the
// arrived payload cut into random unit-aligned segments, on the typed
// branch and on the portable one (Put/Get around the same loops) the
// kernels take on a big-endian host.  A seed reproduces a failure.
func FuzzLaneKernels(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	pool := bufpool.New()
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		et := ElemType{Kind: laneKinds[rng.Intn(len(laneKinds))], Words: 1 + rng.Intn(3)}
		w, es := et.Words, et.Kind.Size()
		elems, n := 1+rng.Intn(40), 1+rng.Intn(60)
		packList, unpackList := randomRuns(rng, elems, n), randomRuns(rng, elems, n)
		var local []LocalRun
		for k := rng.Intn(6); k > 0; k-- {
			a := randomRun(rng, elems, 6)
			b := randomRun(rng, elems, int(a.Count))
			local = append(local, LocalRun{Src: a.Start, SrcStride: a.Stride, Dst: b.Start, DstStride: b.Stride, Count: b.Count})
		}
		op := rng.Intn(2) // opCopy or opAdd
		canView := rng.Intn(2) == 0 && codec.HostLE()
		cut := make([]bool, n*w) // cut[u]: a segment starts at unit u
		for k := rng.Intn(n * w); k > 0; k-- {
			cut[1+rng.Intn(n*w-1)] = true
		}
		label := fmt.Sprintf("seed %d: %v op=%d canView=%v", seed, et, op, canView)

		src := smallFill(et, elems, 1)
		lin := MakeMem(ElemType{Kind: et.Kind, Words: 1}, n*w) // the lane, unit by unit
		for k, u := range runUnits(packList, w) {
			lin.SetF(k, src.GetF(u))
		}
		wire := lin.AppendTo(nil)
		staged := n
		if canView {
			staged = 0
			for _, r := range packList {
				if r.Stride != 1 {
					staged += int(r.Count)
				}
			}
		}
		want := smallFill(et, elems, 3)
		for k, u := range runUnits(unpackList, w) {
			if op == opAdd {
				addUnit(&want, u, lin.GetF(k))
			} else {
				want.SetF(u, lin.GetF(k))
			}
		}

		// The arrived lane as random unit-aligned segments, then a
		// checksum trailer the runs must not reach.
		var segs [][]byte
		at := 0
		for u := range cut {
			if cut[u] {
				segs = append(segs, wire[at*es:u*es])
				at = u
			}
		}
		segs = append(segs, wire[at*es:], []byte{1, 2, 3, 4, 5, 6, 7, 8})

		defer func() { typedLanes = codec.HostLE() }()
		for _, typed := range []bool{false, true} {
			if typed && !codec.HostLE() {
				continue
			}
			typedLanes = typed
			label := fmt.Sprintf("%s typed=%v", label, typed)

			pay := pool.GetPayload()
			stage := packLane(pay, make([]byte, 0, staged*w*es), &src, packList, w, canView)
			if got := pay.AppendTo(nil); string(got) != string(wire) || len(stage) != staged*w*es {
				t.Fatalf("%s: packed % x (%d staged), want % x (%d)", label, got, len(stage), wire, staged*w*es)
			}
			for i, lane := range [][][]byte{segs, append(pay.Segments(), segs[len(segs)-1])} {
				dst := smallFill(et, elems, 3)
				unpackLane(&dst, lane, unpackList, w, op)
				sameUnits(t, fmt.Sprintf("%s: unpack of segmentation %d", label, i), dst, want)
			}
			pay.Release()

			for _, reverse := range []bool{false, true} {
				if reverse && op == opAdd {
					continue // MoveAdd has no reverse form
				}
				from, to := smallFill(et, elems, 1), smallFill(et, elems, 3)
				wantFrom, wantTo := smallFill(et, elems, 1), smallFill(et, elems, 3)
				for _, lr := range local {
					for k := int32(0); k < lr.Count; k++ {
						for j := 0; j < w; j++ {
							a, b := int(lr.Src+k*lr.SrcStride)*w+j, int(lr.Dst+k*lr.DstStride)*w+j
							switch {
							case op == opAdd:
								addUnit(&wantTo, b, wantFrom.GetF(a))
							case reverse:
								wantFrom.SetF(a, wantTo.GetF(b))
							default:
								wantTo.SetF(b, wantFrom.GetF(a))
							}
						}
					}
				}
				localLane(&from, &to, local, w, reverse, op)
				sameUnits(t, fmt.Sprintf("%s reverse=%v: local source", label, reverse), from, wantFrom)
				sameUnits(t, fmt.Sprintf("%s reverse=%v: local destination", label, reverse), to, wantTo)
			}
		}
	})
}
