package core

import (
	"fmt"
	"strings"
	"testing"

	"metachaos/internal/mpsim"
)

func TestMergeSchedulesSingleMessageRound(t *testing.T) {
	// Two disjoint transfers between the same objects, named as the two
	// regions of one SetOfRegions per side, build one schedule whose
	// move sends one message per process pair where two schedules send
	// two — the aggregation a coupled code wants when several interface
	// transfers fire back to back.
	run := func(merge bool) (sent int64) {
		mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
			ctx := NewCtx(p, p.Comm())
			src := newTestObj(40, 2, 1, p.Rank())
			dst := newTestObj(40, 2, 1, p.Rank())
			src.fillDistinct(0)
			build := func(srcSet, dstSet *SetOfRegions) *Schedule {
				s, err := ComputeSchedule(SingleProgram(p.Comm()),
					&Spec{Lib: testLib{}, Obj: src, Set: srcSet, Ctx: ctx},
					&Spec{Lib: testLib{}, Obj: dst, Set: dstSet, Ctx: ctx},
					Duplication)
				if err != nil {
					t.Errorf("%v", err)
				}
				return s
			}
			// Transfers a and b, each a (source, destination) region
			// pair, both cross from rank 0's half to rank 1's half.
			a := [2]Region{testRegion(seqIdx(0, 10, 1)), testRegion(seqIdx(20, 10, 1))}
			b := [2]Region{testRegion(seqIdx(10, 10, 1)), testRegion(seqIdx(30, 10, 1))}
			var scheds []*Schedule
			if merge {
				scheds = append(scheds, build(NewSetOfRegions(a[0], b[0]), NewSetOfRegions(a[1], b[1])))
				if scheds[0].Elems() != 20 {
					t.Errorf("merged Elems=%d", scheds[0].Elems())
				}
			} else {
				scheds = append(scheds, build(NewSetOfRegions(a[0]), NewSetOfRegions(a[1])),
					build(NewSetOfRegions(b[0]), NewSetOfRegions(b[1])))
			}
			base := p.LocalStats().MsgsSent
			for _, s := range scheds {
				s.Move(src, dst)
			}
			if p.Rank() == 0 {
				sent = p.LocalStats().MsgsSent - base
			}
			srcAll := gatherObj(p.Comm(), src)
			dstAll := gatherObj(p.Comm(), dst)
			if p.Rank() == 0 {
				for k := 0; k < 20; k++ {
					if dstAll[20+k] != srcAll[k] {
						t.Errorf("dst[%d]=%g want %g", 20+k, dstAll[20+k], srcAll[k])
					}
				}
			}
		})
		return sent
	}
	// Rank 0 owns every source element and rank 1 every destination.
	if separate, merged := run(false), run(true); separate != 2 || merged != 1 {
		t.Errorf("rank 0 sent %d data messages for two schedules and %d for one; want 2 and 1", separate, merged)
	}
}

func TestMoveWrongObjectPanics(t *testing.T) {
	// An object too small for the schedule dies with core's message
	// before any byte moves, whichever part of the schedule it fails:
	// a send lane, a receive lane or a local run.  Each of the two
	// ranks packs offsets 0-4 for the other, unpacks the other's into
	// 5-9 and copies its own 5-9 onto 0-4, so an object of 5 elements
	// fits both lanes but not the local runs' source side.
	cat := func(parts ...[]int32) testRegion {
		var r testRegion
		for _, p := range parts {
			r = append(r, p...)
		}
		return r
	}
	srcSet := NewSetOfRegions(cat(seqIdx(0, 5, 1), seqIdx(10, 5, 1), seqIdx(5, 5, 1), seqIdx(15, 5, 1)))
	dstSet := NewSetOfRegions(cat(seqIdx(15, 5, 1), seqIdx(5, 5, 1), seqIdx(0, 5, 1), seqIdx(10, 5, 1)))
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(20, 2, 1, p.Rank())
		dst := newTestObj(20, 2, 1, p.Rank())
		sched, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: srcSet, Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: dstSet, Ctx: ctx},
			Duplication)
		if err != nil {
			t.Fatal(err)
		}
		tiny := newTestObj(4, 2, 1, p.Rank())  // 2 elements per rank
		half := newTestObj(10, 2, 1, p.Rank()) // 5 elements per rank
		for _, c := range []struct {
			name     string
			src, dst *testObj
		}{
			{"send lane", tiny, dst},
			{"receive lane", src, tiny},
			{"local run", half, dst},
		} {
			sent := p.LocalStats().MsgsSent
			func() {
				defer func() {
					if r := recover(); !strings.Contains(fmt.Sprint(r), "wrong object passed to Move?") {
						t.Errorf("rank %d, %s: move with wrong object panicked with %v", p.Rank(), c.name, r)
					}
				}()
				sched.Move(c.src, c.dst)
			}()
			if got := p.LocalStats().MsgsSent - sent; got != 0 {
				t.Errorf("rank %d, %s: %d messages left before the panic", p.Rank(), c.name, got)
			}
		}
		// Nothing was posted either: the schedule still moves.
		src.fillDistinct(0)
		sched.Move(src, dst)
		srcAll, dstAll := gatherObj(p.Comm(), src), gatherObj(p.Comm(), dst)
		for k, g := range srcSet.Region(0).(testRegion) {
			if d := dstSet.Region(0).(testRegion)[k]; dstAll[d] != srcAll[g] {
				t.Errorf("after the panics, dst[%d] = %g, want %g", d, dstAll[d], srcAll[g])
			}
		}
	})
}

func TestMoveWrongWidthPanics(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(10, 1, 1, 0)
		dst := newTestObj(10, 1, 1, 0)
		sched, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(seqIdx(0, 5, 1))), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(seqIdx(5, 5, 1))), Ctx: ctx},
			Duplication)
		if err != nil {
			t.Fatal(err)
		}
		wide := newTestObj(10, 1, 3, 0)
		defer func() {
			if recover() == nil {
				t.Error("move with mismatched element width did not panic")
			}
		}()
		sched.Move(wide, dst)
	})
}
