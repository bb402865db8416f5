package core

import (
	"fmt"
	"testing"

	"metachaos/internal/bufpool"
	"metachaos/internal/codec"
)

// The lane kernels driven directly, without a world: packLane and
// unpackLane (so packRuns/unpackRuns of every kind) against a reference
// that moves one scalar unit at a time through GetF/SetF/addUnit.

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
