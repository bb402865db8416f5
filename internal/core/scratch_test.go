package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
)

// shortAnswers is a library that breaks the inquiry contract while
// *short is set: DerefAt drops its last run.
type shortAnswers struct {
	core.Library
	short *bool
}

func (l shortAnswers) DerefAt(ctx *core.Ctx, o core.DistObject, set *core.SetOfRegions, at []core.PosRange, out []core.LocRun) []core.LocRun {
	runs := l.Library.DerefAt(ctx, o, set, at, out)
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
// come out right.  The regridding row couples two programs, so every
// build exchanges descriptors, and its destination program changes its
// grid (not its shape) from build to build: the source program's
// remembered peer side must not survive the change.
func TestBuildScratchDoesNotLeak(t *testing.T) {
	for _, row := range []struct {
		name         string
		layout       layout
		method       core.Method
		sides        buildSides
		small, large int
		panicFirst   bool
	}{
		{"chaos to hpf, cooperation", oneProgram, core.Cooperation, chaosToHPFSides, 1 << 6, 1 << 10, false},
		{"pcxx to chaos, cooperation", oneProgram, core.Cooperation, pcxxToChaosSides, 1 << 6, 1 << 10, false},
		{"sections, cooperation", oneProgram, core.Cooperation, sectionSides, 6, 24, false},
		{"sections, duplication", oneProgram, core.Duplication, sectionSides, 6, 24, false},
		{"sections, duplication after a contract panic", oneProgram, core.Duplication, sectionSides, 6, 24, true},
		{"sections between programs, duplication, the peer regridding", twoPrograms, core.Duplication, regridSides, 1, 2, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			errs := make([]string, 8)
			mpsim.Run(mpsim.Config{Machine: mpsim.Ideal(), Programs: programs(func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				kept, _, _ := row.layout.coupling(p, nil, nil)
				report := func(format string, args ...any) {
					if errs[p.WorldRank()] == "" {
						errs[p.WorldRank()] = fmt.Sprintf(format, args...)
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
					fresh, src, dst := row.layout.coupling(p, src, dst)
					got, err := core.ComputeSchedule(kept, src, dst, row.method)
					if err != nil {
						panic(err)
					}
					want, err := core.ComputeSchedule(fresh, src, dst, row.method)
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
					moveHeld(got, src, dst)
				}
			}, row.layout.procs()...)})
			for r, e := range errs {
				if e != "" {
					t.Errorf("rank %d: %s", r, e)
				}
			}
		})
	}
}

// moveHeld runs sched's copy with the sides the rank holds.
func moveHeld(sched *core.Schedule, src, dst *core.Spec) {
	switch {
	case src == nil:
		sched.MoveRecv(dst.Obj)
	case dst == nil:
		sched.MoveSend(src.Obj)
	default:
		sched.Move(src.Obj, dst.Obj)
	}
}

// regridSides is a 24×24 section of a (BLOCK, BLOCK) HPF array copied
// onto a shifted one of a Multiblock Parti array of the same shape,
// spread over a cols-column grid of the program's processes.
func regridSides(p *mpsim.Proc, ctx *core.Ctx, cols int) (src, dst *core.Spec) {
	np := p.Comm().Size()
	grid, err := distarray.NewDist(gidx.Shape{32, 32}, []int{np / cols, cols}, []distarray.Kind{distarray.Block, distarray.Block})
	if err != nil {
		panic(err)
	}
	src = &core.Spec{Lib: hpfrt.Library, Obj: hpfrt.NewArray(distarray.MustBlock2D(32, 32, np), p.Rank()), Ctx: ctx,
		Set: core.NewSetOfRegions(gidx.NewSection([]int{1, 3}, []int{25, 27}))}
	dst = &core.Spec{Lib: mbparti.Library, Obj: mbparti.MustNewArray(grid, p.Rank(), 1), Ctx: ctx,
		Set: core.NewSetOfRegions(gidx.NewSection([]int{5, 0}, []int{29, 24}))}
	return src, dst
}
