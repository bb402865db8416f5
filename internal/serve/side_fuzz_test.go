package serve

import (
	"slices"
	"testing"

	"metachaos/internal/core"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/pcxxrt"
)

// FuzzSideRuns checks the daemon's run-based fill and digest (over the
// library's OwnedPositions runs) against an element-by-element
// reference that knows only the layouts: distarray's EachOwned with
// shape.Linear and coordinate Set for the section libraries, pcxxrt's
// Owner and Slot for collections.  After a fill every rank's storage
// must equal the reference's, and its digest the one the reference
// computes from the same elements.
func FuzzSideRuns(f *testing.F) {
	f.Add(uint8(0), uint8(10), uint8(0), uint8(2), uint8(0), int64(1))
	f.Add(uint8(1), uint8(61), uint8(0), uint8(7), uint8(0), int64(2))
	f.Add(uint8(2), uint8(6), uint8(4), uint8(3), uint8(0), int64(3))
	f.Add(uint8(3), uint8(8), uint8(6), uint8(5), uint8(0), int64(4))
	f.Add(uint8(4), uint8(36), uint8(0), uint8(4), uint8(2), int64(5))
	f.Add(uint8(4), uint8(12), uint8(0), uint8(0), uint8(1), int64(6))
	f.Fuzz(func(t *testing.T, layout, n0, n1, procs, words uint8, seed int64) {
		spec := fuzzSideSpec(layout, n0, n1, procs, words)
		if spec.validate(0) != nil {
			t.Skip()
		}
		value := func(pos, wd int) float64 { return fillValue(seed, pos, wd) }
		type result struct {
			mem    []float64
			digest uint64
		}
		got := make([]result, spec.Procs)
		mpsim.Run(mpsim.Config{Machine: mpsim.SP2(), Programs: []mpsim.ProgramSpec{{
			Name: "side", Procs: spec.Procs, Body: func(p *mpsim.Proc) {
				sd, err := buildSide(core.NewCtx(p, p.Comm()), &spec)
				if err != nil {
					panic(err)
				}
				sd.fill(seed)
				got[p.Rank()] = result{slices.Clone(sd.obj.LocalMem().Float64s()), sd.digest()}
			},
		}}})
		for rank, g := range got {
			mem, digest := sideReference(&spec, rank, value)
			if !slices.Equal(g.mem, mem) {
				t.Fatalf("%s rank %d: storage after the fill\n got %v\nwant %v", spec.Key(), rank, g.mem, mem)
			}
			if g.digest != digest {
				t.Fatalf("%s rank %d: digest %016x, the reference's %016x", spec.Key(), rank, g.digest, digest)
			}
		}
	})
}

// fuzzSideSpec maps fuzz bytes onto the daemon's vocabulary: every
// library and layout, extents that rarely divide by the 1 to 8 procs,
// and 1 to 3 words per pcxxrt element.
func fuzzSideSpec(layout, n0, n1, procs, words uint8) DistSpec {
	spec := DistSpec{Procs: 1 + int(procs)%8}
	vec, rows, cols := 1+int(n0)%64, 1+int(n0)%12, 1+int(n1)%12
	switch layout % 5 {
	case 0:
		spec.Library, spec.Layout, spec.Shape = "hpfrt", "blockvec", []int{vec}
	case 1:
		spec.Library, spec.Layout, spec.Shape = "mbparti", "blockvec", []int{vec}
	case 2:
		spec.Library, spec.Layout, spec.Shape = "hpfrt", "rowblock", []int{rows, cols}
	case 3:
		spec.Library, spec.Layout, spec.Shape = "mbparti", "block2d", []int{rows, cols}
	default:
		spec.Library, spec.Layout, spec.Shape = "pcxxrt", "roundrobin", []int{vec}
		spec.ElemWords = 1 + int(words)%3
	}
	return spec
}

// sideReference fills rank's share of spec element by element with
// value(position, word) and returns its storage and the share's digest:
// Σ W(position·words + word) · value over the elements the rank owns.
func sideReference(spec *DistSpec, rank int, value func(pos, wd int) float64) ([]float64, uint64) {
	var digest uint64
	add := func(pos, wd int, v float64) { digest += weight(pos*spec.words()+wd) * uint64(int64(v)) }
	if spec.Library == "pcxxrt" {
		words := spec.words()
		c, err := pcxxrt.NewCollection(spec.Shape[0], spec.Procs, words, rank)
		if err != nil {
			panic(err)
		}
		mem := make([]float64, len(c.LocalMem().Float64s()))
		for i := 0; i < spec.Shape[0]; i++ {
			if c.Owner(i) != rank {
				continue
			}
			at := c.Slot(i) * words
			for wd := 0; wd < words; wd++ {
				mem[at+wd] = value(i, wd)
				add(i, wd, mem[at+wd])
			}
		}
		return mem, digest
	}
	dist, err := distFor(spec)
	if err != nil {
		panic(err)
	}
	shape := gidx.Shape(spec.Shape)
	fill := func(coords []int) float64 { return value(shape.Linear(coords), 0) }
	var get func([]int) float64
	var local core.Mem
	if spec.Library == "hpfrt" {
		a := hpfrt.NewArray(dist, rank)
		a.FillGlobal(fill)
		get, local = a.Get, a.LocalMem()
	} else {
		a := mbparti.MustNewArray(dist, rank, 0)
		a.FillGlobal(fill)
		get, local = a.Get, a.LocalMem()
	}
	dist.EachOwned(rank, func(_, coords []int) { add(shape.Linear(coords), 0, get(coords)) })
	return local.Float64s(), digest
}
