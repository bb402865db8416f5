package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/lparx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/pcxxrt"
)

// The differential oracle for the run-granular inspector.  A case —
// two sides of equal set size, a method, one program or two — comes
// from a seed.  It is built twice, once through ComputeSchedule and the
// libraries' run answers, once through the element-granular builders
// and libraries kept in oracle_test.go and oracle_libs_test.go, and the
// two must agree on everything observable: the libraries' answers
// position by position, each rank's send, receive and local lists run
// for run, what a move lands, every rank's traffic counters and every
// rank's final clock, bit for bit.

var sideKinds = []string{"hpf", "mbparti", "lparx", "pcxx", "chaos"}

// sideDef is one side of a case, in terms every rank can build its
// share from.
type sideDef struct {
	kind   string
	nprocs int
	set    func() *core.SetOfRegions

	// hpf, mbparti
	dist *distarray.Dist
	halo int
	// lparx
	dec *lparx.Decomposition
	// pcxx
	n int
	// chaos: shares[r] lists rank r's global indices in storage order;
	// proc and off invert that.
	shares    [][]int32
	proc, off []int32
}

// factors splits m into r factors, each a random divisor of what the
// ones before it left.
func factors(rng *rand.Rand, m, r int) []int {
	out := make([]int, r)
	for d := 0; d < r-1; d++ {
		var divs []int
		for f := 1; f <= m; f++ {
			if m%f == 0 {
				divs = append(divs, f)
			}
		}
		out[d] = divs[rng.Intn(len(divs))]
		m /= out[d]
	}
	out[r-1] = m
	rng.Shuffle(r, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// split cuts m into one to three positive parts.
func split(rng *rand.Rand, m int) []int {
	var parts []int
	for k := rng.Intn(3); k > 0 && m > 1; k-- {
		part := 1 + rng.Intn(m-1)
		parts = append(parts, part)
		m -= part
	}
	return append(parts, m)
}

// randomSections returns sections of the given rank holding m points
// in all — one to three of them, strided or not, anywhere — and the
// smallest shape that contains them.
func randomSections(rng *rand.Rand, m, rank int, strided bool) ([]gidx.Section, gidx.Shape) {
	shape := make(gidx.Shape, rank)
	var secs []gidx.Section
	for _, part := range split(rng, m) {
		sec := gidx.Section{Lo: make([]int, rank), Hi: make([]int, rank), Step: make([]int, rank)}
		for d, count := range factors(rng, part, rank) {
			sec.Lo[d], sec.Step[d] = rng.Intn(4), 1
			if strided {
				sec.Step[d] += rng.Intn(3)
			}
			// Any bound from the last point up to the next lattice point
			// gives the same count.
			sec.Hi[d] = sec.Lo[d] + (count-1)*sec.Step[d] + 1 + rng.Intn(sec.Step[d])
			shape[d] = max(shape[d], sec.Hi[d])
		}
		secs = append(secs, sec)
	}
	for d := range shape {
		shape[d] += rng.Intn(3)
	}
	return secs, shape
}

// tiling cuts the box [lo, hi) into up to k patches by random
// axis-aligned cuts.
func tiling(rng *rand.Rand, lo, hi []int, k, nprocs int) []lparx.Patch {
	for tries := 0; k > 1 && tries < 4; tries++ {
		d := rng.Intn(len(lo))
		if hi[d]-lo[d] < 2 {
			continue
		}
		cut := lo[d] + 1 + rng.Intn(hi[d]-lo[d]-1)
		midHi := append([]int(nil), hi...)
		midLo := append([]int(nil), lo...)
		midHi[d], midLo[d] = cut, cut
		left := tiling(rng, lo, midHi, k/2, nprocs)
		return append(left, tiling(rng, midLo, hi, k-k/2, nprocs)...)
	}
	return []lparx.Patch{{Lo: lo, Hi: hi, Owner: rng.Intn(nprocs)}}
}

// randomSide builds a side of the given kind over nprocs processes
// whose set has exactly m elements.
func randomSide(rng *rand.Rand, kind string, nprocs, m int) *sideDef {
	s := &sideDef{kind: kind, nprocs: nprocs}
	switch kind {
	case "hpf", "mbparti":
		rank := 1 + rng.Intn(3)
		secs, shape := randomSections(rng, m, rank, true)
		grid := factors(rng, nprocs, rank)
		kinds := make([]distarray.Kind, rank)
		params := make([]int, rank)
		allBlock := true
		for d := range kinds {
			kinds[d] = []distarray.Kind{distarray.Block, distarray.Block, distarray.Cyclic, distarray.BlockCyclic}[rng.Intn(4)]
			params[d] = 1 + rng.Intn(3)
			allBlock = allBlock && kinds[d] == distarray.Block
		}
		dist, err := distarray.NewDistParams(shape, grid, kinds, params)
		if err != nil {
			panic(err)
		}
		s.dist = dist
		if kind == "mbparti" && allBlock {
			s.halo = rng.Intn(3)
		}
		s.set = func() *core.SetOfRegions {
			set := core.NewSetOfRegions()
			for _, sec := range secs {
				set.Add(sec)
			}
			return set
		}
	case "lparx":
		rank := 1 + rng.Intn(3)
		secs, shape := randomSections(rng, m, rank, false)
		dec, err := lparx.NewDecomposition(nprocs, tiling(rng, make([]int, rank), shape, 1+rng.Intn(6), nprocs))
		if err != nil {
			panic(err)
		}
		s.dec = dec
		s.set = func() *core.SetOfRegions {
			set := core.NewSetOfRegions()
			for _, sec := range secs {
				set.Add(lparx.BoxRegion{Lo: sec.Lo, Hi: sec.Hi})
			}
			return set
		}
	case "pcxx":
		var regs []pcxxrt.RangeRegion
		for _, part := range split(rng, m) {
			lo, step := rng.Intn(5), 1+rng.Intn(4)
			regs = append(regs, pcxxrt.RangeRegion{Lo: lo, Hi: lo + (part-1)*step + 1, Step: step})
			s.n = max(s.n, lo+(part-1)*step+1)
		}
		s.n += rng.Intn(3)
		s.set = func() *core.SetOfRegions {
			set := core.NewSetOfRegions()
			for _, r := range regs {
				set.Add(r)
			}
			return set
		}
	case "chaos":
		n := max(m+rng.Intn(8), nprocs)
		// Ownership is a random deal or, half the time, contiguous blocks.
		perm := rng.Perm(n)
		if rng.Intn(2) == 0 {
			for i := range perm {
				perm[i] = i
			}
		}
		s.shares = make([][]int32, nprocs)
		s.proc, s.off = make([]int32, n), make([]int32, n)
		for r := range s.shares {
			for k, g := range perm[r*n/nprocs : (r+1)*n/nprocs] {
				s.shares[r] = append(s.shares[r], int32(g))
				s.proc[g], s.off[g] = int32(r), int32(k)
			}
		}
		// The region is a permuted choice of m indices; half the time it
		// runs through stretches of consecutive ones, so the table's
		// answers hold runs too.
		region := make([]int32, m)
		pick := rng.Perm(n)
		if rng.Intn(2) == 0 {
			for i := range pick {
				pick[i] = i
			}
		}
		for i := range region {
			region[i] = int32(pick[i])
		}
		cuts := split(rng, m)
		s.set = func() *core.SetOfRegions {
			set := core.NewSetOfRegions()
			at := 0
			for _, c := range cuts {
				set.Add(chaoslib.IndexRegion(region[at : at+c]))
				at += c
			}
			return set
		}
	}
	return s
}

// build makes rank's share of the side: the library, its reference, and
// the object (collective for chaos).
func (s *sideDef) build(ctx *core.Ctx, rank int) (core.Library, core.ElemLibrary, core.DistObject) {
	switch s.kind {
	case "hpf":
		return hpfrt.Library, refSec{}, hpfrt.NewArray(s.dist, rank)
	case "mbparti":
		return mbparti.Library, refSec{}, mbparti.MustNewArray(s.dist, rank, s.halo)
	case "lparx":
		return lparx.Library, refLparx{s.dec}, lparx.NewGrid(s.dec, rank)
	case "pcxx":
		c, err := pcxxrt.NewCollection(s.n, s.nprocs, 1, rank)
		if err != nil {
			panic(err)
		}
		return pcxxrt.Library, refPcxx{}, c
	}
	a, err := chaoslib.NewArray(ctx, s.shares[rank])
	if err != nil {
		panic(err)
	}
	return chaoslib.Library, s.ref(), a
}

// ref returns the side's reference library, which also answers for a
// view of the side decoded on the peer program.
func (s *sideDef) ref() core.ElemLibrary {
	switch s.kind {
	case "hpf", "mbparti":
		return refSec{}
	case "lparx":
		return refLparx{s.dec}
	case "pcxx":
		return refPcxx{}
	}
	return refChaos{proc: s.proc, off: s.off}
}

// oracleCase is one generated input.
type oracleCase struct {
	src, dst *sideDef
	method   core.Method
	twoProgs bool
	seed     int64
}

func (c *oracleCase) String() string {
	progs := "one program"
	if c.twoProgs {
		progs = "two programs"
	}
	return fmt.Sprintf("%s(%d procs) -> %s(%d procs), %v, %s", c.src.kind, c.src.nprocs, c.dst.kind, c.dst.nprocs, c.method, progs)
}

// newCase draws a case from the seed; a non-empty kind, and a
// non-negative choice, pin what a table test wants to enumerate.
func newCase(seed int64, srcKind, dstKind string, method, twoProgs int) *oracleCase {
	rng := rand.New(rand.NewSource(seed))
	pick := func(forced, n int) int {
		if v := rng.Intn(n); forced < 0 {
			return v
		}
		return forced
	}
	kind := func(forced string) string {
		if k := sideKinds[rng.Intn(len(sideKinds))]; forced == "" {
			return k
		}
		return forced
	}
	c := &oracleCase{seed: seed}
	srcKind, dstKind = kind(srcKind), kind(dstKind)
	c.method = core.Method(pick(method, 2))
	c.twoProgs = pick(twoProgs, 2) == 1
	nS := 1 + rng.Intn(4)
	nD := nS
	if c.twoProgs {
		nD = 1 + rng.Intn(4)
	}
	m := 1 + rng.Intn(120)
	c.src = randomSide(rng, srcKind, nS, m)
	c.dst = randomSide(rng, dstKind, nD, m)
	return c
}

// rankOutcome is everything one rank of one world reports.
type rankOutcome struct {
	sends, recvs []core.PeerList
	local        []core.LocalRun
	landed       []float64
	clock        float64
	err          string
	facts        error // LaneFactsErr of the schedule built
}

// runWorld builds the case in a fresh world, through the run-granular
// builder or the reference one.
func (c *oracleCase) runWorld(reference bool) ([]rankOutcome, *mpsim.Stats) {
	total := c.src.nprocs
	if c.twoProgs {
		total += c.dst.nprocs
	}
	out := make([]rankOutcome, total)
	body := func(p *mpsim.Proc) {
		res := &out[p.WorldRank()]
		defer func() {
			if r := recover(); r != nil {
				res.err = fmt.Sprint(r)
				panic(r)
			}
		}()
		ctx := core.NewCtx(p, p.Comm())
		inSrc := !c.twoProgs || p.Program() == "src"
		inDst := !c.twoProgs || p.Program() == "dst"
		coupling := core.SingleProgram(p.Comm())
		if c.twoProgs {
			var err error
			if coupling, err = core.CoupleByName(p, "src", "dst"); err != nil {
				panic(err)
			}
		}
		var src, dst *core.ElemSpec
		if inSrc {
			lib, ref, obj := c.src.build(ctx, p.Rank())
			src = &core.ElemSpec{Spec: &core.Spec{Lib: lib, Obj: obj, Set: c.src.set(), Ctx: ctx}, Ref: ref}
			mem := obj.LocalMem()
			for i := 0; i < mem.Units(); i++ {
				mem.SetF(i, float64(p.WorldRank()*100000+i))
			}
		}
		if inDst {
			lib, ref, obj := c.dst.build(ctx, p.Rank())
			dst = &core.ElemSpec{Spec: &core.Spec{Lib: lib, Obj: obj, Set: c.dst.set(), Ctx: ctx}, Ref: ref}
		}

		var sched *core.Schedule
		var err error
		if reference {
			sched, err = core.RefComputeSchedule(coupling, src, dst, c.method, func(*core.Spec) core.ElemLibrary {
				if inSrc {
					return c.dst.ref()
				}
				return c.src.ref()
			})
		} else {
			var s, d *core.Spec
			if src != nil {
				s = src.Spec
			}
			if dst != nil {
				d = dst.Spec
			}
			sched, err = core.ComputeSchedule(coupling, s, d, c.method)
		}
		if err != nil {
			panic(err)
		}
		res.sends, res.recvs, res.local = sched.Sends, sched.Recvs, sched.Local
		res.facts = core.LaneFactsErr(sched)

		switch {
		case inSrc && inDst:
			sched.Move(src.Obj, dst.Obj)
		case inSrc:
			sched.MoveSend(src.Obj)
		default:
			sched.MoveRecv(dst.Obj)
		}
		if inDst {
			mem := dst.Obj.LocalMem()
			for i := 0; i < mem.Units(); i++ {
				res.landed = append(res.landed, mem.GetF(i))
			}
		}
		res.clock = p.Clock()
	}
	cfg := mpsim.Config{Machine: mpsim.SP2()}
	if c.twoProgs {
		cfg.Programs = []mpsim.ProgramSpec{
			{Name: "src", Procs: c.src.nprocs, Body: body},
			{Name: "dst", Procs: c.dst.nprocs, Body: body},
		}
	} else {
		cfg.Programs = []mpsim.ProgramSpec{{Name: "p", Procs: c.src.nprocs, Body: body}}
	}
	return out, mpsim.Run(cfg)
}

// answer is one library answer, position by position.
type answer struct {
	pos  []int32
	locs []core.Loc
}

func expandAnswer(runs []core.LocRun) answer {
	var a answer
	for _, r := range runs {
		for k := int32(0); k < r.Count; k++ {
			a.pos = append(a.pos, r.Pos+k)
			a.locs = append(a.locs, core.Loc{Proc: r.Proc, Off: r.Off + k*r.Stride})
		}
	}
	return a
}

// checkAnswers puts every inquiry function of both sides' libraries
// beside its element-granular reference: the whole range, a random
// sub-range, random sorted intervals, and the owned positions; and
// checks that each appends its answer to the caller's buffer.
func (c *oracleCase) checkAnswers(t *testing.T) {
	for _, side := range []*sideDef{c.src, c.dst} {
		side := side
		mpsim.RunSPMD(mpsim.Ideal(), side.nprocs, func(p *mpsim.Proc) {
			ctx := core.NewCtx(p, p.Comm())
			lib, ref, obj := side.build(ctx, p.Rank())
			set := side.set()
			m := set.Size()
			// Every rank draws the same requests: chaos inquiries are
			// collective.
			rng := rand.New(rand.NewSource(c.seed))
			lo := rng.Intn(m)
			hi := lo + 1 + rng.Intn(m-lo)
			var at []core.PosRange
			var positions []int32
			for pos := 0; pos < m; {
				pos += rng.Intn(3)
				end := min(m, pos+1+rng.Intn(6))
				if pos < end {
					at = append(at, core.PosRange{Lo: int32(pos), Hi: int32(end)})
				}
				for ; pos < end; pos++ {
					positions = append(positions, int32(pos))
				}
			}

			check := func(what string, got answer, wantPos []int32, want []core.Loc) {
				if len(got.pos)+len(wantPos) == 0 {
					return // nil and empty are the same answer
				}
				if !reflect.DeepEqual(got.pos, wantPos) || !reflect.DeepEqual(got.locs, want) {
					t.Errorf("%s rank %d: %s:\n runs  %v %v\n elems %v %v", side.kind, p.Rank(), what, got.pos, got.locs, wantPos, want)
				}
			}
			span := func(lo, hi int) []int32 {
				var out []int32
				for pos := lo; pos < hi; pos++ {
					out = append(out, int32(pos))
				}
				return out
			}
			check("DerefRange(all)", expandAnswer(lib.DerefRange(ctx, obj, set, 0, m, nil)), span(0, m), ref.DerefRange(ctx, obj, set, 0, m))
			check("DerefRange(part)", expandAnswer(lib.DerefRange(ctx, obj, set, lo, hi, nil)), span(lo, hi), ref.DerefRange(ctx, obj, set, lo, hi))
			check("DerefAt", expandAnswer(lib.DerefAt(ctx, obj, set, at, nil)), positions, ref.DerefAt(ctx, obj, set, positions))

			got := expandAnswer(lib.OwnedPositions(ctx, obj, set, nil))
			var wantPos []int32
			var want []core.Loc
			for _, pl := range ref.OwnedPositions(ctx, obj, set) {
				wantPos = append(wantPos, pl.Pos)
				want = append(want, core.Loc{Proc: int32(p.Rank()), Off: pl.Off})
			}
			check("OwnedPositions", got, wantPos, want)

			// The append form: an answer appended after a prefix leaves
			// the prefix as it was and equals, run for run, the answer
			// appended to nil, whether it lands in the prefix's spare
			// capacity or in a new array.  The prefix ends just before
			// the answer's first run, on the same process, so a library
			// that fused its first run into the caller's would show.
			appended := func(what string, ask func(out []core.LocRun) []core.LocRun) {
				fresh := ask(nil)
				prefix := []core.LocRun{{Pos: -9, Proc: -1, Off: -9, Count: 1}}
				if len(fresh) > 0 {
					r := fresh[0]
					prefix = append(prefix, core.LocRun{Pos: r.Pos - 1, Proc: r.Proc, Off: r.Off - 1, Stride: 1, Count: 1})
				}
				for _, room := range []int{0, len(fresh) + 8} {
					out := ask(append(make([]core.LocRun, 0, len(prefix)+room), prefix...))
					if len(out) < len(prefix) || !slices.Equal(out[:len(prefix)], prefix) || !slices.Equal(out[len(prefix):], fresh) {
						t.Errorf("%s rank %d: %s appended with room for %d more:\n got  %v\n want %v then %v", side.kind, p.Rank(), what, room, out, prefix, fresh)
					}
				}
			}
			appended("DerefRange(all)", func(out []core.LocRun) []core.LocRun { return lib.DerefRange(ctx, obj, set, 0, m, out) })
			appended("DerefRange(part)", func(out []core.LocRun) []core.LocRun { return lib.DerefRange(ctx, obj, set, lo, hi, out) })
			appended("DerefAt", func(out []core.LocRun) []core.LocRun { return lib.DerefAt(ctx, obj, set, at, out) })
			appended("OwnedPositions", func(out []core.LocRun) []core.LocRun { return lib.OwnedPositions(ctx, obj, set, out) })
		})
	}
}

// check runs the case through both builders and compares.
func (c *oracleCase) check(t *testing.T) {
	t.Helper()
	c.checkAnswers(t)
	if t.Failed() {
		t.Fatalf("seed %d: %v: library answers differ", c.seed, c)
	}
	got, gotStats := c.runWorld(false)
	want, wantStats := c.runWorld(true)
	for r := range got {
		g, w := &got[r], &want[r]
		switch {
		case g.err != "" || w.err != "":
			t.Errorf("rank %d: runs panicked with %q, elements with %q", r, g.err, w.err)
		case g.facts != nil || w.facts != nil:
			t.Errorf("rank %d lane facts: runs %v, elements %v", r, g.facts, w.facts)
		case !reflect.DeepEqual(g.sends, w.sends):
			t.Errorf("rank %d sends:\n runs  %v\n elems %v", r, g.sends, w.sends)
		case !reflect.DeepEqual(g.recvs, w.recvs):
			t.Errorf("rank %d recvs:\n runs  %v\n elems %v", r, g.recvs, w.recvs)
		case !reflect.DeepEqual(g.local, w.local):
			t.Errorf("rank %d local:\n runs  %v\n elems %v", r, g.local, w.local)
		case !reflect.DeepEqual(g.landed, w.landed):
			t.Errorf("rank %d: the move landed different data", r)
		case g.clock != w.clock:
			t.Errorf("rank %d clock: runs %v, elements %v", r, g.clock, w.clock)
		case gotStats.PerRank[r] != wantStats.PerRank[r]:
			t.Errorf("rank %d traffic: runs %+v, elements %+v", r, gotStats.PerRank[r], wantStats.PerRank[r])
		}
	}
	if gotStats.MakespanSeconds != wantStats.MakespanSeconds {
		t.Errorf("makespan: runs %v, elements %v", gotStats.MakespanSeconds, wantStats.MakespanSeconds)
	}
	if t.Failed() {
		t.Fatalf("seed %d: %v", c.seed, c)
	}
}

// TestScheduleRunsVsElements is the oracle in table form: every library
// pairing under both methods, inside one program and between two.
func TestScheduleRunsVsElements(t *testing.T) {
	seed := int64(0)
	for _, srcKind := range sideKinds {
		for _, dstKind := range sideKinds {
			for method := 0; method < 2; method++ {
				for twoProgs := 0; twoProgs < 2; twoProgs++ {
					for rep := 0; rep < 3; rep++ {
						seed++
						newCase(seed, srcKind, dstKind, method, twoProgs).check(t)
					}
				}
			}
		}
	}
}

// FuzzScheduleRunsVsElements is the oracle over seeds.  The corpus
// below runs on every go test; -fuzz explores further, and a failure
// prints the seed that reproduces it.
func FuzzScheduleRunsVsElements(f *testing.F) {
	for seed := int64(1000); seed < 1040; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		newCase(seed, "", "", -1, -1).check(t)
	})
}
