package main

import (
	"fmt"

	"metachaos"
)

// The in-world catalogs.  An op is one full cycle through a workload's
// small fixed catalog, so all ops of a workload are alike and a median
// means something.  Everything irregular about an input — ownership
// deals, index permutations, fill values, one box placement and one cut
// — comes from -seed.

// Set sizes.  One op is 2–3 ms on the recording host, so that a round of
// 40 is about a tenth of a second: interference there comes in regimes
// seconds to minutes long, and the best round is only as good as the
// chance that one whole round falls between two of them (README.md,
// "The estimator" and "Sizing").
const (
	regularEdge  = 48   // inspect-regular sets are regularEdge² elements
	regularPad   = 2    // arrays are (regularEdge+regularPad)², so a section has room to shift
	irregularN   = 2048 // inspect-irregular set size
	steadyN      = 32768
	steadyIrregN = 8192
)

// sizing is a workload's op counts.  They are constants, not fitted to
// the clock, so that every count and every virtual-time number of a run
// repeats exactly.
type sizing struct {
	// roundOps is the ops in one round of the timed section.
	roundOps int
	// warmOps is the ops between the first op and the timed section; it
	// is part of setup_s and takes at least a second on the recording
	// host.  move-steady needs 300 in any case, as BenchmarkMovePack
	// does: freelists settle only after a few hundred moves.
	warmOps int
	// opsPerS is the op rate on the recording host, to the nearest ten.
	// Its only use is to turn --seconds into a round count.
	opsPerS int
}

var sizings = map[string]sizing{
	"inspect-regular":   {roundOps: 40, warmOps: 340, opsPerS: 330},
	"inspect-irregular": {roundOps: 40, warmOps: 450, opsPerS: 430},
	"move-steady":       {roundOps: 40, warmOps: 400, opsPerS: 380},
	// Both tenants together.  A move is mostly a wait for the daemon's
	// flush timer, so what varies is whether the tenants' moves happen to
	// share batches, and that needs averaging over a longer round.
	"serve-steady": {roundOps: 200, warmOps: 820, opsPerS: 780},
}

// tracedRounds is the length of a traced incarnation's timed section.
// The tracer keeps several hundred spans per op in memory.
const tracedRounds = 4

// counts are one incarnation's op counts.
type counts struct{ rounds, roundOps, warmOps int }

// countsFor turns the workload's constants and --seconds into op counts;
// the options' own counts, which the tests set, take precedence.
func countsFor(workload string, o options) counts {
	z := sizings[workload]
	c := counts{rounds: int(o.seconds*float64(z.opsPerS)/float64(z.roundOps) + 0.5), roundOps: z.roundOps, warmOps: z.warmOps}
	if c.rounds < 1 {
		c.rounds = 1
	}
	if o.counts.rounds > 0 {
		c = o.counts
	}
	return c
}

func linearOf(shape []int, coords []int) int {
	lin := 0
	for d, c := range coords {
		lin = lin*shape[d] + c
	}
	return lin
}

// sectionObj wraps an HPF or Multiblock Parti array and a unit-stride
// section of it.
func sectionObj(lib metachaos.LibraryIface, o metachaos.DistObject, local []float64,
	fillGlobal func(func(coords []int) float64), shape, lo, hi []int) *obj {
	return &obj{
		lib: lib, o: o, local: local,
		set: metachaos.NewSetOfRegions(metachaos.NewSection(lo, hi)),
		fill: func(f func(int) float64) {
			fillGlobal(func(c []int) float64 { return f(linearOf(shape, c)) })
		},
	}
}

func hpfObj(dist *metachaos.Dist, rank int, shape, lo, hi []int) *obj {
	a := metachaos.NewHPFArray(dist, rank)
	return sectionObj(metachaos.HPF, a, a.Local(), a.FillGlobal, shape, lo, hi)
}

func partiObj(dist *metachaos.Dist, rank int, shape, lo, hi []int) *obj {
	a, err := metachaos.NewMBPartiArray(dist, rank, 1)
	if err != nil {
		panic(err) // the catalog's distributions are fixed and valid
	}
	return sectionObj(metachaos.MBParti, a, a.Local(), a.FillGlobal, shape, lo, hi)
}

func lparxObj(g *metachaos.LPARXGrid, shape, lo, hi []int) *obj {
	return &obj{
		lib: metachaos.LPARX, o: g, local: g.Local(),
		set: metachaos.NewSetOfRegions(metachaos.BoxRegion{Lo: lo, Hi: hi}),
		fill: func(f func(int) float64) {
			g.FillGlobal(func(c []int) float64 { return f(linearOf(shape, c)) })
		},
	}
}

func chaosObj(a *metachaos.ChaosArray, region []int32) *obj {
	return &obj{
		lib: metachaos.Chaos, o: a, local: a.Local(),
		set:  metachaos.NewSetOfRegions(metachaos.IndexRegion(region)),
		fill: func(f func(int) float64) { a.FillGlobal(func(g int32) float64 { return f(int(g)) }) },
	}
}

func pcxxObj(n, nprocs, rank int) *obj {
	c, err := metachaos.NewPCXXCollection(n, nprocs, 1, rank)
	if err != nil {
		panic(err)
	}
	return &obj{
		lib: metachaos.PCXX, o: c, local: c.Local(),
		set: metachaos.NewSetOfRegions(metachaos.RangeRegion{Lo: 0, Hi: n, Step: 1}),
		fill: func(f func(int) float64) {
			c.ForEachOwned(func(i int, elem []float64) { elem[0] = f(i) })
		},
	}
}

// identity is the linearization of a whole 1-D array or collection.
func identity(n int) linset {
	return linset{size: n, posOf: func(g int) int { return g }}
}

// deal splits a seeded permutation of 0..n-1 into nprocs contiguous
// shares: an irregular distribution in which rank r owns share r.
func deal(rng *splitmix, n, nprocs int) [][]int32 {
	perm := rng.perm(n)
	shares := make([][]int32, nprocs)
	for r := range shares {
		shares[r] = perm[r*n/nprocs : (r+1)*n/nprocs]
	}
	return shares
}

// sides picks which of a two-program coupling's objects this rank
// builds.
func sides(p *metachaos.Proc, src, dst func() *obj) (s, d, acc *obj) {
	if p.Program() == "src" {
		return src(), nil, nil
	}
	return nil, dst(), nil
}

var twoPrograms = []program{{"src", 4}, {"dst", 4}}

// inspectRegular: three section/box couplings between two 4-rank
// programs.  The inspector does nearly all the work.
func inspectRegular(seed uint64) *worldDef {
	rng := splitmix(seed)
	const e, n, np = regularEdge, regularEdge + regularPad, 4
	shape := []int{n, n}
	// Every section is placed differently in its array, so none lines up
	// with its partner or with a block boundary.  The seed places only
	// the LPARX box, by a column or two: where a section falls decides
	// message sizes, and six seeded offsets moved vtime_ms_per_op by 1.1%
	// between seeds (inter-quartile), this one moves it by under 0.4%.
	at := func(r, c int) (lo, hi []int) { return []int{r, c}, []int{r + e, c + e} }
	// Four unequal patches tiling the whole array, so any box the seed
	// places is covered.
	patches := []metachaos.LPARXPatch{
		{Lo: []int{0, 0}, Hi: []int{n / 2, n / 2}, Owner: 0},
		{Lo: []int{0, n / 2}, Hi: []int{n / 2, n}, Owner: 1},
		{Lo: []int{n / 2, 0}, Hi: []int{n, n / 3}, Owner: 2},
		{Lo: []int{n / 2, n / 3}, Hi: []int{n, n}, Owner: 3},
	}
	def := &worldDef{name: "inspect-regular", programs: twoPrograms}
	add := func(name string, method metachaos.Method, srcAt, dstAt [2]int, src, dst func(rank int, lo, hi []int) *obj) {
		slo, shi := at(srcAt[0], srcAt[1])
		dlo, dhi := at(dstAt[0], dstAt[1])
		def.cpls = append(def.cpls, &cplDef{
			name: name, method: method, seed: rng.next(),
			src: sectionSet(shape, slo, shi), dst: sectionSet(shape, dlo, dhi),
			build: func(p *metachaos.Proc, _ *metachaos.Ctx) (*obj, *obj, *obj) {
				return sides(p,
					func() *obj { return src(p.Rank(), slo, shi) },
					func() *obj { return dst(p.Rank(), dlo, dhi) })
			},
		})
	}
	hpfBlock := func(rank int, lo, hi []int) *obj {
		return hpfObj(metachaos.Block2D(n, n, np), rank, shape, lo, hi)
	}
	hpfRows := func(rank int, lo, hi []int) *obj {
		return hpfObj(metachaos.RowBlockMatrix(n, n, np), rank, shape, lo, hi)
	}
	parti := func(rank int, lo, hi []int) *obj {
		return partiObj(metachaos.Block2D(n, n, np), rank, shape, lo, hi)
	}
	boxes := func(rank int, lo, hi []int) *obj {
		dec, err := metachaos.NewLPARXDecomposition(np, patches)
		if err != nil {
			panic(err)
		}
		return lparxObj(metachaos.NewLPARXGrid(dec, rank), shape, lo, hi)
	}
	add("hpf-block2d-to-parti-block2d", metachaos.Cooperation, [2]int{0, 0}, [2]int{2, 1}, hpfBlock, parti)
	add("parti-block2d-to-hpf-rowblock", metachaos.Duplication, [2]int{1, 1}, [2]int{0, 2}, parti, hpfRows)
	add("lparx-box-to-hpf-block2d", metachaos.Cooperation, [2]int{1, rng.intn(regularPad + 1)}, [2]int{2, 0}, boxes, hpfBlock)
	return def
}

// inspectIrregular: the same inspector driven element by element —
// CHAOS indirection arrays behind the paged translation table, and a
// pC++ collection dealt round-robin.
func inspectIrregular(seed uint64) *worldDef {
	rng := splitmix(seed)
	const n, np = irregularN, 4
	shape := []int{n}
	full := func(rank int) *obj {
		return hpfObj(metachaos.BlockVector(n, np), rank, shape, []int{0}, []int{n})
	}
	def := &worldDef{name: "inspect-irregular", programs: twoPrograms}
	// chaos builds the CHAOS side: shares says who owns what, region in
	// what order the elements are linearized.
	chaos := func(ctx *metachaos.Ctx, rank int, shares [][]int32, region []int32) *obj {
		a, err := metachaos.NewChaosArray(ctx, shares[rank])
		if err != nil {
			panic(err)
		}
		return chaosObj(a, region)
	}
	add := func(name string, chaosIsSrc bool, other func(rank int) *obj) {
		shares, region := deal(&rng, n, np), rng.perm(n)
		d := &cplDef{name: name, method: metachaos.Cooperation, seed: rng.next(),
			src: identity(n), dst: identity(n)}
		if chaosIsSrc {
			d.src = indexSet(n, region)
		} else {
			d.dst = indexSet(n, region)
		}
		d.build = func(p *metachaos.Proc, ctx *metachaos.Ctx) (*obj, *obj, *obj) {
			mine := func() *obj { return chaos(ctx, p.Rank(), shares, region) }
			theirs := func() *obj { return other(p.Rank()) }
			if chaosIsSrc {
				return sides(p, mine, theirs)
			}
			return sides(p, theirs, mine)
		}
		def.cpls = append(def.cpls, d)
	}
	add("chaos-to-hpf-blockvec", true, full)
	add("hpf-blockvec-to-chaos", false, full)
	add("pcxx-roundrobin-to-chaos", false, func(rank int) *obj { return pcxxObj(n, np, rank) })
	return def
}

// moveSteady: one 8-rank program, schedules built once in set-up, the
// executor and the simulated transport do all the work.
func moveSteady(seed uint64) *worldDef {
	rng := splitmix(seed)
	const n, m, np = steadyN, steadyIrregN, 8
	def := &worldDef{name: "move-steady", programs: []program{{"main", np}}, warm: true}
	vec := func(n, rank, lo, hi int) *obj {
		return hpfObj(metachaos.BlockVector(n, np), rank, []int{n}, []int{lo}, []int{hi})
	}

	// Stride-1 block → block: the executor ships views of source
	// storage, no pack copy.  Half of every block crosses to the next
	// rank; the seed moves the cut by a few elements only, because
	// vtime_ms_per_op follows the share that crosses.
	shift := n/np/2 + rng.intn(8)
	def.cpls = append(def.cpls, &cplDef{
		name: "block-to-block-views", method: metachaos.Duplication, seed: rng.next(),
		src: sectionSet([]int{n}, []int{0}, []int{n - shift}),
		dst: sectionSet([]int{n}, []int{shift}, []int{n}),
		build: func(p *metachaos.Proc, _ *metachaos.Ctx) (*obj, *obj, *obj) {
			return vec(n, p.Rank(), 0, n-shift), vec(n, p.Rank(), shift, n), vec(n, p.Rank(), shift, n)
		},
	})

	// Block → cyclic: every rank exchanges a strided lane with every
	// other, staged through leased segments.
	def.cpls = append(def.cpls, &cplDef{
		name: "block-to-cyclic-staged", method: metachaos.Cooperation, seed: rng.next(),
		src: identity(n), dst: identity(n),
		build: func(p *metachaos.Proc, _ *metachaos.Ctx) (*obj, *obj, *obj) {
			return vec(n, p.Rank(), 0, n), pcxxObj(n, np, p.Rank()), pcxxObj(n, np, p.Rank())
		},
	})

	// HPF → CHAOS: seed-permuted element runs.
	shares, region := deal(&rng, m, np), rng.perm(m)
	def.cpls = append(def.cpls, &cplDef{
		name: "hpf-to-chaos-element-runs", method: metachaos.Cooperation, seed: rng.next(),
		src: identity(m), dst: indexSet(m, region),
		build: func(p *metachaos.Proc, ctx *metachaos.Ctx) (*obj, *obj, *obj) {
			a, err := metachaos.NewChaosArray(ctx, shares[p.Rank()])
			if err != nil {
				panic(err)
			}
			return vec(m, p.Rank(), 0, m), chaosObj(a, region), chaosObj(metachaos.NewAlignedChaosArray(a), region)
		},
	})
	return def
}

func inWorldDef(name string, seed uint64) (*worldDef, error) {
	switch name {
	case "inspect-regular":
		return inspectRegular(seed), nil
	case "inspect-irregular":
		return inspectIrregular(seed), nil
	case "move-steady":
		return moveSteady(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
