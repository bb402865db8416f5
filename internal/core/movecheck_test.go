package core

import (
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
	// A too-small object must trip bounds protection, not corrupt
	// memory silently.  Single process: the failure stays local.
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
		tiny := newTestObj(2, 1, 1, 0)
		defer func() {
			if recover() == nil {
				t.Error("move with wrong object did not panic")
			}
		}()
		sched.Move(tiny, dst)
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
