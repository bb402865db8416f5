package exp

import (
	"fmt"

	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/lparx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/pcxxrt"
)

// Extension experiment E1 (not in the paper): the full cross-library
// cost matrix.  Every pair of the five bound libraries moves the same
// 65536-element payload on 8 SP2 processes; the cells report the
// per-iteration copy time.  The matrix quantifies what the framework
// promises: any source, any destination, one mechanism — with costs
// set by the distributions, not by which pair of libraries is
// involved.

const matrixN = 65536

// matrixKinds orders the libraries in the matrix.
var matrixKinds = []string{"mbparti", "hpf", "chaos", "pcxx", "lparx"}

// ExtensionMatrix measures schedule-build and copy times for all 25
// pairings and returns them as two tables.
func ExtensionMatrix() (sched, copyT *Table) {
	const nprocs = 8
	schedVals := make([][]float64, len(matrixKinds))
	copyVals := make([][]float64, len(matrixKinds))
	for i, src := range matrixKinds {
		schedVals[i] = make([]float64, len(matrixKinds))
		copyVals[i] = make([]float64, len(matrixKinds))
		for j, dst := range matrixKinds {
			s, c := runMatrixCell(src, dst, nprocs)
			schedVals[i][j] = ms(s)
			copyVals[i][j] = ms(c)
		}
	}
	sched = &Table{
		ID:        "Extension E1a",
		Title:     fmt.Sprintf("Cross-library schedule build, %d elements, %d processes, IBM SP2 (rows: source; cols: destination)", matrixN, nprocs),
		Unit:      "msec",
		ColHeader: "src \\ dst",
		Cols:      matrixKinds,
		Notes: []string{
			"rows/columns involving chaos pay the distributed translation-table dereference; all others are arithmetic",
		},
	}
	copyT = &Table{
		ID:        "Extension E1b",
		Title:     fmt.Sprintf("Cross-library data copy per iteration, %d elements, %d processes, IBM SP2", matrixN, nprocs),
		Unit:      "msec",
		ColHeader: "src \\ dst",
		Cols:      matrixKinds,
		Notes: []string{
			"copy cost depends on how much data crosses processes under the two distributions, not on the library pairing",
		},
	}
	for i, k := range matrixKinds {
		sched.Rows = append(sched.Rows, Row{Label: k, Values: schedVals[i]})
		copyT.Rows = append(copyT.Rows, Row{Label: k, Values: copyVals[i]})
	}
	return sched, copyT
}

// runMatrixCell measures one (src, dst) pairing.
func runMatrixCell(srcKind, dstKind string, nprocs int) (schedT, copyT float64) {
	v, _ := measure(sp2(), nprocs, func(p *mpsim.Proc) []float64 {
		ctx := core.NewCtx(p, p.Comm())
		srcObj, srcSet := matrixSide(ctx, p, srcKind)
		dstObj, dstSet := matrixSide(ctx, p, dstKind)
		var s *core.Schedule
		st := timePhase(p, p.Comm(), func() {
			s = mustSchedule(core.SingleProgram(p.Comm()),
				&core.Spec{Lib: must(core.LookupLibrary(srcKind)), Obj: srcObj, Set: srcSet, Ctx: ctx},
				&core.Spec{Lib: must(core.LookupLibrary(dstKind)), Obj: dstObj, Set: dstSet, Ctx: ctx},
				core.Cooperation)
		})
		return []float64{st, perIter(p, p.Comm(), 4, func() { s.Move(srcObj, dstObj) })}
	})
	return v[0], v[1]
}

// matrixSide builds a matrixN-element structure of the given flavour
// selecting all elements.
func matrixSide(ctx *core.Ctx, p *mpsim.Proc, kind string) (core.DistObject, *core.SetOfRegions) {
	nprocs := p.Size()
	switch kind {
	case "mbparti":
		a := mbparti.MustNewArray(hpfrt.BlockVector(matrixN, nprocs), p.Rank(), 0)
		return a, core.NewSetOfRegions(gidx.FullSection(gidx.Shape{matrixN}))
	case "hpf":
		a := hpfrt.NewArray(hpfrt.BlockVector(matrixN, nprocs), p.Rank())
		return a, core.NewSetOfRegions(gidx.FullSection(gidx.Shape{matrixN}))
	case "chaos":
		perm := meshPerm() // 65536-entry permutation, reused
		a := must(chaoslib.NewArray(ctx, irregOwned(perm, nprocs, p.Rank())))
		return a, core.NewSetOfRegions(chaoslib.IndexRegion(identity32(matrixN)))
	case "pcxx":
		c := must(pcxxrt.NewCollection(matrixN, nprocs, 1, p.Rank()))
		return c, core.NewSetOfRegions(pcxxrt.RangeRegion{Lo: 0, Hi: matrixN, Step: 1})
	case "lparx":
		// Uneven strips: each process owns one patch, sized in a
		// 1:2:...:P progression.
		total := nprocs * (nprocs + 1) / 2
		var patches []lparx.Patch
		at := 0
		for r := 0; r < nprocs; r++ {
			size := matrixN * (r + 1) / total
			if r == nprocs-1 {
				size = matrixN - at
			}
			patches = append(patches, lparx.Patch{Lo: []int{at}, Hi: []int{at + size}, Owner: r})
			at += size
		}
		return lparx.NewGrid(must(lparx.NewDecomposition(nprocs, patches)), p.Rank()),
			core.NewSetOfRegions(lparx.BoxRegion{Lo: []int{0}, Hi: []int{matrixN}})
	}
	panic("unknown kind " + kind)
}
