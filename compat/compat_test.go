package compat

import (
	"strings"
	"testing"

	"metachaos/internal/chaoslib"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mpsim"
)

func TestCreateRegionHPFInclusiveBounds(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		mc := NewSession(p)
		// Fortran a(2:5, 1:3) -> 4x3 = 12 elements.
		id, err := mc.CreateRegion_HPF(2, []int{2, 1}, []int{5, 3})
		if err != nil {
			t.Fatal(err)
		}
		if got := mc.regs[id].Size(); got != 12 {
			t.Errorf("region size %d, want 12", got)
		}
		if _, err := mc.CreateRegion_HPF(2, []int{1}, []int{5, 3}); err == nil {
			t.Error("rank mismatch accepted")
		}
	})
}

func TestSetAssemblyAndIntraProgramMove(t *testing.T) {
	const n, nprocs = 12, 2
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		mc := NewSession(p)
		src := hpfrt.NewArray(hpfrt.BlockVector(n, nprocs), p.Rank())
		src.FillGlobal(func(c []int) float64 { return float64(c[0] + 1) })
		var mine []int32
		for g := p.Rank(); g < n; g += nprocs {
			mine = append(mine, int32(g))
		}
		dst, err := chaoslib.NewArray(mc.ctx, mine)
		if err != nil {
			t.Fatal(err)
		}

		// Two source regions concatenated against one destination list.
		r1, _ := mc.CreateRegion_HPF(1, []int{0}, []int{5})
		r2, _ := mc.CreateRegion_HPF(1, []int{6}, []int{11})
		srcSet := mc.MC_NewSetOfRegion()
		if err := mc.MC_AddRegion2Set(r1, srcSet); err != nil {
			t.Fatal(err)
		}
		if err := mc.MC_AddRegion2Set(r2, srcSet); err != nil {
			t.Fatal(err)
		}
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(n - 1 - i) // reversed
		}
		r3 := mc.CreateRegion_Chaos(idx)
		dstSet := mc.MC_NewSetOfRegion()
		if err := mc.MC_AddRegion2Set(r3, dstSet); err != nil {
			t.Fatal(err)
		}

		sched, err := mc.MC_ComputeSched("hpf", src, srcSet, "chaos", dst, dstSet)
		if err != nil {
			t.Fatal(err)
		}
		if err := mc.MC_DataMove(sched, src, dst); err != nil {
			t.Fatal(err)
		}
		// dst element (n-1-k) holds src element k -> dst[g] = n-g.
		for k, g := range dst.Indices() {
			if got := dst.GetLocal(k); got != float64(n-int(g)) {
				t.Errorf("dst[%d]=%g want %d", g, got, n-int(g))
			}
		}

		if err := mc.MC_FreeSched(sched); err != nil {
			t.Fatal(err)
		}
		if err := mc.MC_DataMove(sched, src, dst); err == nil {
			t.Error("freed schedule usable")
		}
	})
}

func TestBadHandles(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		mc := NewSession(p)
		if err := mc.MC_AddRegion2Set(RegionID(3), SetOfRegionsID(0)); err == nil {
			t.Error("bad region handle accepted")
		}
		if err := mc.MC_DataMoveSend(ScheduleID(9), nil); err == nil {
			t.Error("bad schedule handle accepted")
		}
		if _, err := mc.MC_ComputeSchedSend("no-such-lib", nil, mc.MC_NewSetOfRegion(), "peer"); err == nil ||
			!strings.Contains(err.Error(), "no library") {
			t.Errorf("unknown library: %v", err)
		}
	})
}

func TestInterProgramCompat(t *testing.T) {
	const n = 10
	got := make([]float64, n)
	mpsim.Run(mpsim.Config{
		Machine: mpsim.Ideal(),
		Programs: []mpsim.ProgramSpec{
			{Name: "giver", Procs: 2, Body: func(p *mpsim.Proc) {
				mc := NewSession(p)
				a := hpfrt.NewArray(hpfrt.BlockVector(n, 2), p.Rank())
				a.FillGlobal(func(c []int) float64 { return float64(c[0] * 4) })
				r, _ := mc.CreateRegion_HPF(1, []int{0}, []int{n - 1})
				set := mc.MC_NewSetOfRegion()
				mc.MC_AddRegion2Set(r, set)
				id, err := mc.MC_ComputeSchedSend("hpf", a, set, "taker")
				if err != nil {
					t.Errorf("%v", err)
					return
				}
				if err := mc.MC_DataMoveSend(id, a); err != nil {
					t.Errorf("%v", err)
				}
			}},
			{Name: "taker", Procs: 2, Body: func(p *mpsim.Proc) {
				mc := NewSession(p)
				d, _ := distarray.NewDist(gidx.Shape{n}, []int{2}, []distarray.Kind{distarray.Cyclic})
				a := hpfrt.NewArray(d, p.Rank())
				r, _ := mc.CreateRegion_HPF(1, []int{0}, []int{n - 1})
				set := mc.MC_NewSetOfRegion()
				mc.MC_AddRegion2Set(r, set)
				id, err := mc.MC_ComputeSchedRecv("hpf", a, set, "giver")
				if err != nil {
					t.Errorf("%v", err)
					return
				}
				if err := mc.MC_DataMoveRecv(id, a); err != nil {
					t.Errorf("%v", err)
					return
				}
				for g := 0; g < n; g++ {
					if d.OwnerOf([]int{g}) == p.Rank() {
						got[g] = a.Get([]int{g})
					}
				}
			}},
		},
	})
	for g := range got {
		if got[g] != float64(g*4) {
			t.Errorf("taker[%d]=%g want %d", g, got[g], g*4)
		}
	}
}

func TestComputeSchedErrors(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		mc := NewSession(p)
		obj := hpfrt.NewArray(hpfrt.BlockVector(4, 1), 0)
		set := mc.MC_NewSetOfRegion()
		r, _ := mc.CreateRegion_HPF(1, []int{0}, []int{3})
		mc.MC_AddRegion2Set(r, set)
		if _, err := mc.MC_ComputeSched("nope", obj, set, "hpf", obj, set); err == nil {
			t.Error("unknown src library accepted")
		}
		if _, err := mc.MC_ComputeSched("hpf", obj, set, "nope", obj, set); err == nil {
			t.Error("unknown dst library accepted")
		}
		if _, err := mc.MC_ComputeSchedRecv("nope", obj, set, "peer"); err == nil {
			t.Error("unknown recv library accepted")
		}
		if err := mc.MC_FreeSched(ScheduleID(5)); err == nil {
			t.Error("freeing unknown schedule accepted")
		}
	})
}
