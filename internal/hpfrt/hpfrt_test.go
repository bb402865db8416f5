package hpfrt

import (
	"fmt"
	"math"
	"testing"

	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/mpsim"
)

func TestMatVecMatchesSequential(t *testing.T) {
	const rows, cols = 17, 23
	aij := func(i, j int) float64 { return float64((i*7+j*3)%11) - 5 }
	xi := func(i int) float64 { return float64(i%5) + 0.5 }
	want := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			want[i] += aij(i, j) * xi(j)
		}
	}
	for _, nprocs := range []int{1, 2, 4} {
		nprocs := nprocs
		t.Run(fmt.Sprintf("P%d", nprocs), func(t *testing.T) {
			got := make([]float64, rows)
			mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				a := NewArray(RowBlockMatrix(rows, cols, nprocs), p.Rank())
				x := NewArray(BlockVector(cols, nprocs), p.Rank())
				y := NewArray(BlockVector(rows, nprocs), p.Rank())
				a.FillGlobal(func(c []int) float64 { return aij(c[0], c[1]) })
				x.FillGlobal(func(c []int) float64 { return xi(c[0]) })
				if err := MatVec(ctx, a, x, y); err != nil {
					t.Errorf("MatVec: %v", err)
					return
				}
				// Collect y.
				var w codec.Writer
				lo, hi, _ := y.Dist().LocalBox(p.Rank())
				for i := lo[0]; i < hi[0]; i++ {
					w.PutInt32(int32(i))
					w.PutFloat64(y.Get([]int{i}))
				}
				for _, part := range p.Comm().Allgather(w.Bytes()) {
					r := codec.NewReader(part)
					for r.Remaining() > 0 {
						i := r.Int32()
						got[i] = r.Float64()
					}
				}
			})
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("P=%d: y[%d]=%g want %g", nprocs, i, got[i], want[i])
				}
			}
		})
	}
}

func TestMatVecValidation(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		a := NewArray(RowBlockMatrix(8, 6, 2), p.Rank())
		xBad := NewArray(BlockVector(5, 2), p.Rank())
		y := NewArray(BlockVector(8, 2), p.Rank())
		if err := MatVec(ctx, a, xBad, y); err == nil {
			t.Error("column/operand mismatch accepted")
		}
		x := NewArray(BlockVector(6, 2), p.Rank())
		yBad := NewArray(BlockVector(7, 2), p.Rank())
		if err := MatVec(ctx, a, x, yBad); err == nil {
			t.Error("row/result mismatch accepted")
		}
		// Non-row-block matrix.
		d, _ := distarray.NewDist(gidx.Shape{8, 6}, []int{1, 2},
			[]distarray.Kind{distarray.Block, distarray.Block})
		aBad := NewArray(d, p.Rank())
		if err := MatVec(ctx, aBad, x, y); err == nil {
			t.Error("column-distributed matrix accepted")
		}
	})
}

// TestHPFInterProgramSectionCopy reproduces the paper's Figure 9: two
// HPF programs exchange an array section, A[0:50, 10:60] = B[50:100,
// 50:100], via Meta-Chaos.
func TestHPFInterProgramSectionCopy(t *testing.T) {
	srcSec := gidx.NewSection([]int{50, 50}, []int{100, 100})
	dstSec := gidx.NewSection([]int{0, 10}, []int{50, 60})
	gotA := make([]float64, 50*60)
	mpsim.Run(mpsim.Config{
		Machine: mpsim.Ideal(),
		Programs: []mpsim.ProgramSpec{
			{Name: "source", Procs: 4, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				b := NewArray(distarray.MustBlock2D(200, 100, 4), p.Rank())
				b.FillGlobal(func(c []int) float64 { return float64(c[0]*1000 + c[1]) })
				coupling, _ := core.CoupleByName(p, "source", "destination")
				sched, err := core.ComputeSchedule(coupling,
					&core.Spec{Lib: Library, Obj: b, Set: core.NewSetOfRegions(srcSec), Ctx: ctx},
					nil, core.Cooperation)
				if err != nil {
					t.Errorf("source: %v", err)
					return
				}
				sched.MoveSend(b)
			}},
			{Name: "destination", Procs: 2, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				a := NewArray(distarray.MustBlock2D(50, 60, 2), p.Rank())
				coupling, _ := core.CoupleByName(p, "source", "destination")
				sched, err := core.ComputeSchedule(coupling, nil,
					&core.Spec{Lib: Library, Obj: a, Set: core.NewSetOfRegions(dstSec), Ctx: ctx},
					core.Cooperation)
				if err != nil {
					t.Errorf("destination: %v", err)
					return
				}
				sched.MoveRecv(a)
				var w codec.Writer
				lo, hi, _ := a.Dist().LocalBox(p.Rank())
				for i := lo[0]; i < hi[0]; i++ {
					for j := lo[1]; j < hi[1]; j++ {
						w.PutInt32(int32(i*60 + j))
						w.PutFloat64(a.Get([]int{i, j}))
					}
				}
				for _, part := range p.Comm().Allgather(w.Bytes()) {
					r := codec.NewReader(part)
					for r.Remaining() > 0 {
						k := r.Int32()
						gotA[k] = r.Float64()
					}
				}
			}},
		},
	})
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			want := float64((50+i)*1000 + (50 + j))
			if got := gotA[i*60+10+j]; got != want {
				t.Fatalf("A[%d,%d]=%g want %g", i, 10+j, got, want)
			}
		}
	}
}

func TestMatVecInternalCommGrowsWithProcs(t *testing.T) {
	// The allgather traffic per matvec grows with the process count;
	// verify the message count rises (the root of the paper's server
	// scaling limit).
	msgs := func(nprocs int) int64 {
		st := mpsim.RunSPMD(mpsim.SP2(), nprocs, func(p *mpsim.Proc) {
			ctx := core.NewCtx(p, p.Comm())
			a := NewArray(RowBlockMatrix(64, 64, nprocs), p.Rank())
			x := NewArray(BlockVector(64, nprocs), p.Rank())
			y := NewArray(BlockVector(64, nprocs), p.Rank())
			if err := MatVec(ctx, a, x, y); err != nil {
				t.Errorf("%v", err)
			}
		})
		return st.TotalMsgs()
	}
	if m2, m8 := msgs(2), msgs(8); m8 <= m2 {
		t.Errorf("matvec on 8 procs used %d msgs, on 2 procs %d — expected growth", m8, m2)
	}
}

// TestBlockCyclicArrayThroughMetaChaos covers HPF CYCLIC(k): a
// ScaLAPACK-style block-cyclic matrix feeds a plain BLOCK matrix, and
// comes back intact, through inter-library schedules including the
// descriptor-shipping duplication path.
func TestBlockCyclicArrayThroughMetaChaos(t *testing.T) {
	const rows, cols, nprocs = 12, 10, 4
	d, err := distarray.NewDistParams(gidx.Shape{rows, cols}, []int{2, 2},
		[]distarray.Kind{distarray.BlockCyclic, distarray.BlockCyclic}, []int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		bc := NewArray(d, p.Rank())
		bc.FillGlobal(func(c []int) float64 { return float64(c[0]*100 + c[1]) })
		blk := NewArray(distarray.MustBlock2D(rows, cols, nprocs), p.Rank())

		full := core.NewSetOfRegions(gidx.FullSection(gidx.Shape{rows, cols}))
		for _, m := range []core.Method{core.Cooperation, core.Duplication} {
			sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
				&core.Spec{Lib: Library, Obj: bc, Set: full, Ctx: ctx},
				&core.Spec{Lib: Library, Obj: blk, Set: full, Ctx: ctx}, m)
			if err != nil {
				t.Errorf("%v: %v", m, err)
				return
			}
			sched.Move(bc, blk)
			lo, hi, _ := blk.Dist().LocalBox(p.Rank())
			for i := lo[0]; i < hi[0]; i++ {
				for j := lo[1]; j < hi[1]; j++ {
					if got := blk.Get([]int{i, j}); got != float64(i*100+j) {
						t.Errorf("%v: blk[%d,%d]=%g", m, i, j, got)
						return
					}
				}
			}
		}
	})
}

// TestBlockCyclicDescriptorRoundTrip checks CYCLIC(k) parameters
// survive the descriptor wire format (used by cross-program
// duplication).
func TestBlockCyclicDescriptorRoundTrip(t *testing.T) {
	d, _ := distarray.NewDistParams(gidx.Shape{20}, []int{3},
		[]distarray.Kind{distarray.BlockCyclic}, []int{4})
	mpsim.RunSPMD(mpsim.Ideal(), 3, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		a := NewArray(d, p.Rank())
		blob, _ := Library.EncodeDescriptor(ctx, a)
		v, err := Library.DecodeDescriptor(blob)
		if err != nil {
			t.Fatal(err)
		}
		set := core.NewSetOfRegions(gidx.FullSection(gidx.Shape{20}))
		want := Library.DerefRange(ctx, a, set, 0, 20, nil)
		got := Library.DerefRange(ctx, v, set, 0, 20, nil)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("view deref(%d)=%+v want %+v", i, got[i], want[i])
			}
		}
	})
}
