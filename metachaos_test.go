package metachaos_test

import (
	"testing"

	"metachaos"
)

// These tests exercise the exported API exactly as a downstream user
// would, without touching internal packages.

func TestPublicAPICrossLibraryCopy(t *testing.T) {
	const n, nprocs = 40, 4
	got := make([]float64, n)
	metachaos.RunSPMD(metachaos.Ideal(), nprocs, func(p *metachaos.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())
		src := metachaos.NewHPFArray(metachaos.BlockVector(n, nprocs), p.Rank())
		src.FillGlobal(func(c []int) float64 { return float64(c[0] * 7) })

		var mine []int32
		for g := p.Rank(); g < n; g += nprocs {
			mine = append(mine, int32(g))
		}
		dst, err := metachaos.NewChaosArray(ctx, mine)
		if err != nil {
			t.Errorf("NewChaosArray: %v", err)
			return
		}
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		sched, err := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
			&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
				Set: metachaos.NewSetOfRegions(metachaos.FullSection(metachaos.Shape{n})), Ctx: ctx},
			&metachaos.Spec{Lib: metachaos.Chaos, Obj: dst,
				Set: metachaos.NewSetOfRegions(metachaos.IndexRegion(idx)), Ctx: ctx},
			metachaos.Cooperation)
		if err != nil {
			t.Errorf("ComputeSchedule: %v", err)
			return
		}
		sched.Move(src, dst)
		for k, g := range dst.Indices() {
			got[g] = dst.GetLocal(k)
		}
	})
	for i := range got {
		if got[i] != float64(i*7) {
			t.Fatalf("element %d = %g, want %d", i, got[i], i*7)
		}
	}
}

func TestPublicAPIMachineProfiles(t *testing.T) {
	for _, m := range []*metachaos.Machine{metachaos.SP2(), metachaos.AlphaFarmATM(), metachaos.Ideal()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestPublicAPIRegistry(t *testing.T) {
	for _, name := range []string{"hpf", "chaos", "mbparti", "pcxx"} {
		lib, err := metachaos.LookupLibrary(name)
		if err != nil {
			t.Errorf("LookupLibrary(%q): %v", name, err)
			continue
		}
		if lib.Name() != name {
			t.Errorf("library %q reports name %q", name, lib.Name())
		}
	}
}

func TestPublicAPITwoProgramsWithStats(t *testing.T) {
	const n = 16
	stats := metachaos.Run(metachaos.Config{
		Machine: metachaos.SP2(),
		Programs: []metachaos.ProgramSpec{
			{Name: "left", Procs: 2, Body: func(p *metachaos.Proc) {
				ctx := metachaos.NewCtx(p, p.Comm())
				a := metachaos.NewHPFArray(metachaos.BlockVector(n, 2), p.Rank())
				a.FillGlobal(func(c []int) float64 { return float64(c[0]) })
				coupling, err := metachaos.CoupleByName(p, "left", "right")
				if err != nil {
					t.Errorf("couple: %v", err)
					return
				}
				sched, err := metachaos.ComputeSchedule(coupling,
					&metachaos.Spec{Lib: metachaos.HPF, Obj: a,
						Set: metachaos.NewSetOfRegions(metachaos.FullSection(metachaos.Shape{n})), Ctx: ctx},
					nil, metachaos.Duplication)
				if err != nil {
					t.Errorf("src schedule: %v", err)
					return
				}
				sched.MoveSend(a)
			}},
			{Name: "right", Procs: 2, Body: func(p *metachaos.Proc) {
				ctx := metachaos.NewCtx(p, p.Comm())
				c, err := metachaos.NewPCXXCollection(n, 2, 1, p.Rank())
				if err != nil {
					t.Errorf("collection: %v", err)
					return
				}
				coupling, err := metachaos.CoupleByName(p, "left", "right")
				if err != nil {
					t.Errorf("couple: %v", err)
					return
				}
				sched, err := metachaos.ComputeSchedule(coupling, nil,
					&metachaos.Spec{Lib: metachaos.PCXX, Obj: c,
						Set: metachaos.NewSetOfRegions(metachaos.RangeRegion{Lo: 0, Hi: n, Step: 1}), Ctx: ctx},
					metachaos.Duplication)
				if err != nil {
					t.Errorf("dst schedule: %v", err)
					return
				}
				sched.MoveRecv(c)
				c.ForEachOwned(func(i int, elem []float64) {
					if elem[0] != float64(i) {
						t.Errorf("element %d = %g", i, elem[0])
					}
				})
			}},
		},
	})
	if stats.TotalMsgs() == 0 || stats.MakespanSeconds <= 0 {
		t.Errorf("stats empty: %d msgs, %.6fs", stats.TotalMsgs(), stats.MakespanSeconds)
	}
}

func TestPublicAPIScheduleIntrospection(t *testing.T) {
	metachaos.RunSPMD(metachaos.Ideal(), 2, func(p *metachaos.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())
		src := metachaos.NewHPFArray(metachaos.BlockVector(10, 2), p.Rank())
		dst := metachaos.NewHPFArray(metachaos.BlockVector(10, 2), p.Rank())
		sched, err := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
			&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0}, []int{5})), Ctx: ctx},
			&metachaos.Spec{Lib: metachaos.HPF, Obj: dst,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{5}, []int{10})), Ctx: ctx},
			metachaos.Cooperation)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if sched.Elems() != 5 || sched.Elem().Words != 1 {
			t.Errorf("Elems=%d Elem().Words=%d", sched.Elems(), sched.Elem().Words)
		}
		// Rank 0 owns sources 0-4, rank 1 owns destinations 5-9: one
		// lane each way.
		mine := sched.LocalCount()
		for _, pl := range append(sched.Sends, sched.Recvs...) {
			mine += pl.Len()
		}
		total := int(p.Comm().AllreduceInt64(metachaos.OpSum, int64(mine)))
		if total != 10 { // 5 sends counted on rank 0 + 5 recvs on rank 1
			t.Errorf("total lane entries %d, want 10", total)
		}
	})
}
