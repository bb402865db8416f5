package core_test

import (
	"strings"
	"testing"

	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mpsim"
	"metachaos/internal/seclib"
)

// Set positions and local offsets are int32 everywhere.  A set or a
// local tile past that range must be refused — by every process of
// both programs, so none is left waiting in a collective — not wrapped.
// Descriptor-only views stand in for the arrays, so nothing the size of
// the shapes is ever allocated.
func TestInt32RangeRefused(t *testing.T) {
	small := core.NewSetOfRegions(gidx.NewSection([]int{0, 0}, []int{4, 4}))
	cases := []struct {
		name      string
		rows      int // the source array is rows × rows
		srcProcs  int
		whole     bool // the source set is the whole array
		wantError string
	}{
		// 4.9e9 elements in the set, 1.2e9 in each of four tiles.
		{"set", 70000, 4, true, "source set has 4900000000 elements"},
		// 16 elements in the set, out of a single tile of 2.5e9.
		{"tile", 50000, 1, false, "source object stores 2500000000 elements on one process"},
	}
	for _, tc := range cases {
		dist := distarray.MustBlock2D(tc.rows, tc.rows, tc.srcProcs)
		srcSet := small
		if tc.whole {
			srcSet = core.NewSetOfRegions(gidx.FullSection(dist.Shape()))
		}
		srcSpec := func(p *mpsim.Proc) *core.Spec {
			return &core.Spec{Lib: hpfrt.Library, Obj: seclib.NewView(dist, 0, core.Float64), Set: srcSet,
				Ctx: core.NewCtx(p, p.Comm())}
		}
		dstSpec := func(p *mpsim.Proc) *core.Spec {
			return &core.Spec{Lib: hpfrt.Library, Obj: seclib.NewView(distarray.MustBlock2D(8, 8, 2), 0, core.Float64),
				Set: small, Ctx: core.NewCtx(p, p.Comm())}
		}
		errs := make([]error, tc.srcProcs+2)
		body := func(p *mpsim.Proc) {
			coupling, err := core.CoupleByName(p, "src", "dst")
			if err != nil {
				panic(err)
			}
			var src, dst *core.Spec
			if p.Program() == "src" {
				src = srcSpec(p)
			} else {
				dst = dstSpec(p)
			}
			_, errs[p.WorldRank()] = core.ComputeSchedule(coupling, src, dst, core.Cooperation)
		}
		mpsim.Run(mpsim.Config{Machine: mpsim.Ideal(), Programs: []mpsim.ProgramSpec{
			{Name: "src", Procs: tc.srcProcs, Body: body},
			{Name: "dst", Procs: 2, Body: body},
		}})
		for r, err := range errs {
			if err == nil || !strings.Contains(err.Error(), tc.wantError) {
				t.Errorf("%s: ComputeSchedule on world rank %d returned %v, want an error with %q", tc.name, r, err, tc.wantError)
			}
		}
	}
}
