package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"metachaos/internal/core"
	"metachaos/internal/mpsim"
)

// shortAnswers is a library that breaks the inquiry contract while
// *short is set: DerefAt drops its last run.
type shortAnswers struct {
	core.Library
	short *bool
}

func (l shortAnswers) DerefAt(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, at []core.PosRange) []core.LocRun {
	runs := l.Library.DerefAt(ctx, o, set, at)
	if *l.short && len(runs) > 0 {
		runs = runs[:len(runs)-1]
	}
	return runs
}

// TestBuildScratchDoesNotLeak builds a large, a small and the large
// schedule again on one Coupling, with a move between builds, and puts
// each beside the same build on a fresh Coupling: the scratch a
// coupling keeps between builds must carry nothing from one into the
// next.  The panicking row first builds against a library whose answer
// is short, so the duplication builder panics part-way on every rank
// with its lists half filled; the build after the recovery must still
// come out right.
func TestBuildScratchDoesNotLeak(t *testing.T) {
	for _, row := range []struct {
		name         string
		method       core.Method
		sides        buildSides
		small, large int
		panicFirst   bool
	}{
		{"chaos to hpf, cooperation", core.Cooperation, chaosToHPFSides, 1 << 6, 1 << 10, false},
		{"pcxx to chaos, cooperation", core.Cooperation, pcxxToChaosSides, 1 << 6, 1 << 10, false},
		{"sections, cooperation", core.Cooperation, sectionSides, 6, 24, false},
		{"sections, duplication", core.Duplication, sectionSides, 6, 24, false},
		{"sections, duplication after a contract panic", core.Duplication, sectionSides, 6, 24, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			errs := make([]string, 4)
			mpsim.RunSPMD(mpsim.Ideal(), 4, func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				kept := core.SingleProgram(p.Comm())
				report := func(format string, args ...any) {
					if errs[p.Rank()] == "" {
						errs[p.Rank()] = fmt.Sprintf(format, args...)
					}
				}
				if row.panicFirst {
					short := true
					src, dst := row.sides(p, ctx, row.large)
					dst.Lib = shortAnswers{Library: dst.Lib, short: &short}
					func() {
						defer func() {
							if recover() == nil {
								report("a build on a short answer did not panic")
							}
						}()
						core.ComputeSchedule(kept, src, dst, row.method)
					}()
				}
				for _, size := range []int{row.large, row.small, row.large} {
					src, dst := row.sides(p, ctx, size)
					got, err := core.ComputeSchedule(kept, src, dst, row.method)
					if err != nil {
						panic(err)
					}
					want, err := core.ComputeSchedule(core.SingleProgram(p.Comm()), src, dst, row.method)
					if err != nil {
						panic(err)
					}
					switch {
					case !reflect.DeepEqual(got.Sends, want.Sends):
						report("size %d sends:\n kept  %v\n fresh %v", size, got.Sends, want.Sends)
					case !reflect.DeepEqual(got.Recvs, want.Recvs):
						report("size %d recvs:\n kept  %v\n fresh %v", size, got.Recvs, want.Recvs)
					case !reflect.DeepEqual(got.Local, want.Local):
						report("size %d local:\n kept  %v\n fresh %v", size, got.Local, want.Local)
					}
					got.Move(src.Obj, dst.Obj)
				}
			})
			for r, e := range errs {
				if e != "" {
					t.Errorf("rank %d: %s", r, e)
				}
			}
		})
	}
}
