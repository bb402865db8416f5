package main

import (
	"fmt"
	"runtime"
	"time"

	"metachaos"
)

// The in-world harness: inspect-regular, inspect-irregular and
// move-steady all run inside one simulated world, every rank executing
// the same closed loop — an SPMD program waits for each collective.
//
//	bump a source element; barrier; [rank 0: settle previous op, t0]
//	the op (ends in a barrier); [rank 0: t1]
//	hash the landing sides into the shared oracle
//
// Rank 0 is the clock: an op's latency is the wall time between the two
// barriers that bracket it, so the oracle's hashing sits outside it.

// Array roles inside a coupling.
const (
	aSrc = iota
	aDst
	aAcc // a second destination-aligned array, the target of MoveAdd
	nArrays
)

// obj is one rank's share of one distributed array.
type obj struct {
	lib   metachaos.LibraryIface
	o     metachaos.DistObject
	set   *metachaos.SetOfRegions
	local []float64
	fill  func(f func(global int) float64)
}

// cplDef is one catalog entry, generated from the seed before any world
// starts and shared read-only by every rank.
type cplDef struct {
	name     string
	method   metachaos.Method
	src, dst linset
	seed     uint64
	// build makes this rank's objects (collective; nil for a side the
	// rank's program does not hold).  acc is nil on cold workloads.
	build func(p *metachaos.Proc, ctx *metachaos.Ctx) (src, dst, acc *obj)
}

func (d *cplDef) value(k int) float64 { return fillOf(d.seed, k) }

type program struct {
	name  string
	procs int
}

// worldDef is one in-world workload.
type worldDef struct {
	name     string
	programs []program
	cpls     []*cplDef
	// warm workloads build schedules once in set-up and time moves; cold
	// ones rebuild every schedule inside every op and time the inspector.
	warm bool
}

func (d *worldDef) ranks() int {
	n := 0
	for _, pr := range d.programs {
		n += pr.procs
	}
	return n
}

// movesPerOp is how many data moves one op performs.
func (d *worldDef) movesPerOp() int {
	if d.warm {
		return 3 * len(d.cpls)
	}
	return len(d.cpls)
}

// rankCpl is one rank's live state for one coupling.
type rankCpl struct {
	coupling *metachaos.Coupling
	spec     [2]*metachaos.Spec // aSrc, aDst
	obj      [nArrays]metachaos.DistObject
	side     [nArrays]*side
	sched    *metachaos.Schedule
}

// opLog is rank 0's record of the timed section, one entry per op.
type opLog struct {
	t0      []time.Duration // op start since the section began
	opMs    []float64       // barrier-to-barrier latency
	schedMs []float64       // mean wall time of the op's schedule builds
	moveMs  []float64       // mean wall time of the op's moves
}

// worldRun is one world incarnation: set-up (world start, arrays, warm
// schedule builds, first op, fixed-count warm-up), then the timed
// section of rounds × roundOps ops.
type worldRun struct {
	def *worldDef
	counts
	setupOnly bool // stop, and tear the world down, where the timed section would begin

	// Traced runs only: the program's tracer, the driver's spans, and a
	// hook rank 0 calls as the timed section begins and ends.
	tracer    *metachaos.Tracer
	spans     *spanLog
	onSection func(begin bool)

	// Cross-rank state.  Writers and readers are always separated by a
	// world barrier.
	refs   [][nArrays]arrayRef
	landed [][nArrays]bool // rank 0 only
	stat0  []metachaos.RankStats
	stat1  []metachaos.RankStats
	phases []metachaos.MovePhases
	copied []int64
	strays []int

	// Results, written by rank 0.
	setupS     float64
	schedSetup []float64 // set-up schedule builds (warm workloads), ms
	log        opLog
	attempted  int
	failed     int
	vclock     [2]float64
	mem        [2]runtime.MemStats
	err        error

	sectionStart time.Time
	sectionEnd   time.Duration // since sectionStart
}

func newWorldRun(def *worldDef, c counts) *worldRun {
	n := def.ranks()
	return &worldRun{
		def: def, counts: c,
		refs:   make([][nArrays]arrayRef, len(def.cpls)),
		landed: make([][nArrays]bool, len(def.cpls)),
		stat0:  make([]metachaos.RankStats, n),
		stat1:  make([]metachaos.RankStats, n),
		phases: make([]metachaos.MovePhases, n),
		copied: make([]int64, n),
		strays: make([]int, n),
	}
}

// run executes the incarnation; start is when its set-up began.
func (w *worldRun) run(start time.Time) error {
	cfg := metachaos.Config{Machine: metachaos.SP2(), Obs: w.tracer}
	for _, pr := range w.def.programs {
		cfg.Programs = append(cfg.Programs, metachaos.ProgramSpec{
			Name: pr.name, Procs: pr.procs,
			Body: func(p *metachaos.Proc) {
				if err := w.body(p, start); err != nil && p.WorldRank() == 0 {
					w.err = fmt.Errorf("%s: %w", w.def.name, err)
				}
			},
		})
	}
	metachaos.Run(cfg)
	return w.err
}

// body is one rank's whole life.  An error return is safe: every rank
// fails the same way on the same deterministic input, so none is left
// waiting in a collective.
func (w *worldRun) body(p *metachaos.Proc, start time.Time) error {
	rank0 := p.WorldRank() == 0
	world := p.World()
	ctx := metachaos.NewCtx(p, p.Comm())
	var sp *spanLog
	if rank0 {
		sp = w.spans
	}

	// Set-up: arrays, warm schedules, the first op, which pays for
	// whatever the program initialises lazily, and the warm-up.
	setup := sp.begin("setup", -1)
	cps := make([]*rankCpl, len(w.def.cpls))
	for i, d := range w.def.cpls {
		c, err := w.build(p, ctx, i, d, sp)
		if err != nil {
			return fmt.Errorf("build %s: %w", d.name, err)
		}
		cps[i] = c
	}
	world.Barrier()
	if err := w.loop(p, cps, 0, 1+w.warmOps, nil, sp); err != nil {
		return err
	}
	w.finish(p)
	if rank0 {
		w.setupS = time.Since(start).Seconds()
		setup.end()
	}
	if w.setupOnly {
		return nil
	}
	ops := w.rounds * w.roundOps
	if rank0 {
		w.log = opLog{
			t0:      make([]time.Duration, 0, ops),
			opMs:    make([]float64, 0, ops),
			schedMs: make([]float64, 0, ops),
			moveMs:  make([]float64, 0, ops),
		}
	}

	me := p.WorldRank()
	w.stat0[me] = p.LocalStats()
	w.phases[me], w.copied[me] = metachaos.MovePhases{}, 0
	if rank0 {
		runtime.ReadMemStats(&w.mem[0])
		w.vclock[0] = p.Clock()
		if w.onSection != nil {
			w.onSection(true)
		}
		w.sectionStart = time.Now()
	}
	var log *opLog
	if rank0 {
		log = &w.log
	}
	if err := w.loop(p, cps, 1+w.warmOps, ops, log, sp); err != nil {
		return err
	}
	if rank0 {
		w.sectionEnd = time.Since(w.sectionStart)
		if w.onSection != nil {
			w.onSection(false)
		}
		w.vclock[1] = p.Clock()
		runtime.ReadMemStats(&w.mem[1])
	}
	w.stat1[me] = p.LocalStats()
	w.finish(p)
	for _, c := range cps {
		for _, sd := range c.side {
			if sd != nil {
				w.strays[me] += sd.strays()
			}
		}
	}
	return nil
}

// finish settles the last op of a loop, behind a barrier so every
// rank's hash is in.
func (w *worldRun) finish(p *metachaos.Proc) {
	p.World().Barrier()
	if p.WorldRank() == 0 {
		w.settle()
	}
}

// build makes one coupling on this rank; on warm workloads it also
// computes the schedule, which is then part of set-up.
func (w *worldRun) build(p *metachaos.Proc, ctx *metachaos.Ctx, i int, d *cplDef, sp *spanLog) (*rankCpl, error) {
	// With one program the two names are the same and this is the
	// program coupled with itself.
	progs := w.def.programs
	coupling, err := metachaos.CoupleByName(p, progs[0].name, progs[len(progs)-1].name)
	if err != nil {
		return nil, err
	}
	c := &rankCpl{coupling: coupling}
	src, dst, acc := d.build(p, ctx)
	zero := func(int) float64 { return 0 }
	for a, ob := range []*obj{src, dst, acc} {
		if ob == nil {
			continue
		}
		set, value := d.dst, zero
		if a == aSrc {
			set, value = d.src, d.value
		}
		c.obj[a] = ob.o
		c.side[a] = newSide(ob.local, ob.fill, set, d.seed, value)
		if a != aAcc {
			c.spec[a] = &metachaos.Spec{Lib: ob.lib, Obj: ob.o, Set: ob.set, Ctx: ctx}
		}
	}
	if p.WorldRank() == 0 {
		w.refs[i][aSrc].want = wantOf(d.src, d.seed, d.value)
	}
	if w.def.warm {
		s := sp.begin("sched.build", -1)
		t := time.Now()
		sched, err := metachaos.ComputeSchedule(c.coupling, c.spec[aSrc], c.spec[aDst], d.method)
		if err != nil {
			return nil, err
		}
		if p.WorldRank() == 0 {
			w.schedSetup = append(w.schedSetup, ms(time.Since(t)))
		}
		s.end()
		c.sched = sched
	}
	return c, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// stopwatch reads the clock on rank 0 only.
type stopwatch struct {
	on bool
	t  time.Time
}

func (s *stopwatch) start() {
	if s.on {
		s.t = time.Now()
	}
}

func (s *stopwatch) lap() time.Duration {
	if !s.on {
		return 0
	}
	now := time.Now()
	d := now.Sub(s.t)
	s.t = now
	return d
}

// loop runs ops [from, from+n) on this rank; log is non-nil on rank 0
// during the timed section.
func (w *worldRun) loop(p *metachaos.Proc, cps []*rankCpl, from, n int, log *opLog, sp *spanLog) error {
	rank0 := p.WorldRank() == 0
	world := p.World()
	me, ranks := p.WorldRank(), p.WorldSize()
	for i := from; i < from+n; i++ {
		for ci, c := range cps {
			if sd := c.side[aSrc]; sd != nil {
				w.refs[ci][aSrc].pend.Add(sd.bump(i*ranks + me))
			}
		}
		world.Barrier()
		var t0 time.Time
		var opSpan span
		if rank0 {
			w.settle()
			for ci := range cps {
				w.refs[ci][aSrc].fold()
			}
			opSpan = sp.begin("op", i)
			t0 = time.Now()
		}
		var sched, move time.Duration
		if w.def.warm {
			move = w.warmOp(p, cps, i, sp)
		} else {
			var err error
			if sched, move, err = w.coldOp(p, cps, i, sp); err != nil {
				return err
			}
		}
		if rank0 {
			t1 := time.Now()
			opSpan.end()
			if log != nil {
				log.t0 = append(log.t0, t0.Sub(w.sectionStart))
				log.opMs = append(log.opMs, ms(t1.Sub(t0)))
				log.schedMs = append(log.schedMs, ms(sched)/float64(len(cps)))
				log.moveMs = append(log.moveMs, ms(move)/float64(w.def.movesPerOp()))
			}
			w.attempted++
			w.advance()
		}
		for ci, c := range cps {
			for a, sd := range c.side {
				if sd != nil && (a != aSrc || w.def.warm) {
					w.refs[ci][a].got.Add(sd.hash())
				}
			}
		}
	}
	return nil
}

// coldOp is one inspector op: for every coupling, a schedule computed
// from nothing, one Move through it, and a barrier.
func (w *worldRun) coldOp(p *metachaos.Proc, cps []*rankCpl, op int, sp *spanLog) (sched, move time.Duration, err error) {
	me := p.WorldRank()
	sw := stopwatch{on: me == 0}
	for ci, c := range cps {
		d := w.def.cpls[ci]
		s := sp.begin("sched.build", op)
		sw.start()
		sc, err := metachaos.ComputeSchedule(c.coupling, c.spec[aSrc], c.spec[aDst], d.method)
		if err != nil {
			return 0, 0, fmt.Errorf("schedule %s: %w", d.name, err)
		}
		sched += sw.lap()
		s.end()
		s = sp.begin("move", op)
		res := moveVia(sc, opMove, c.obj[aSrc], c.obj[aDst])
		move += sw.lap()
		s.end()
		w.account(me, &res)
		s = sp.begin("barrier", op)
		p.World().Barrier()
		s.end()
	}
	return sched, move, nil
}

// warmOp is one executor op: Move, MoveAdd and MoveReverse through
// every warm schedule, a barrier after each.  The barrier keeps the
// one-directional pipeline bounded, as BenchmarkMovePack explains.
func (w *worldRun) warmOp(p *metachaos.Proc, cps []*rankCpl, op int, sp *spanLog) (move time.Duration) {
	me, ranks := p.WorldRank(), p.WorldSize()
	sw := stopwatch{on: me == 0}
	for ci, c := range cps {
		for _, kind := range [...]int{opMove, opMoveAdd, opMoveReverse} {
			from, to := c.obj[aSrc], c.obj[aDst]
			switch kind {
			case opMoveAdd:
				to = c.obj[aAcc]
			case opMoveReverse:
				// The destination was last written by this op's Move, so
				// a bump here is something only the reverse move can
				// carry back to the source.
				w.refs[ci][aDst].pend.Add(c.side[aDst].bump(op*ranks + me))
			}
			s := sp.begin("move", op)
			sw.start()
			res := moveVia(c.sched, kind, from, to)
			move += sw.lap()
			s.end()
			w.account(me, &res)
			s = sp.begin("barrier", op)
			p.World().Barrier()
			s.end()
		}
	}
	return move
}

// Move kinds, numbered as serve numbers them.
const (
	opMove = iota
	opMoveAdd
	opMoveReverse
)

// moveVia runs one move of the given kind on whichever sides this rank
// holds.
func moveVia(s *metachaos.Schedule, kind int, src, dst metachaos.DistObject) metachaos.MoveResult {
	switch {
	case src != nil && dst != nil:
		switch kind {
		case opMoveAdd:
			return s.MoveAdd(src, dst)
		case opMoveReverse:
			return s.MoveReverse(src, dst)
		}
		return s.Move(src, dst)
	case src != nil:
		return s.MoveSend(src)
	}
	return s.MoveRecv(dst)
}

func (w *worldRun) account(me int, res *metachaos.MoveResult) {
	addPhases(&w.phases[me], res.Phases)
	w.copied[me] += int64(res.BytesCopied)
}

func addPhases(to *metachaos.MovePhases, ph metachaos.MovePhases) {
	to.Pack += ph.Pack
	to.Ship += ph.Ship
	to.Local += ph.Local
	to.Wait += ph.Wait
	to.Unpack += ph.Unpack
}

// advance applies the op that just finished to the reference hashes
// (rank 0, after the op's last barrier, so every bump is in pend).
func (w *worldRun) advance() {
	for ci := range w.refs {
		r := &w.refs[ci]
		r[aDst].want = r[aSrc].want // Move
		w.landed[ci][aDst] = true
		if w.def.warm {
			r[aAcc].want += r[aSrc].want // MoveAdd
			r[aDst].fold()
			r[aSrc].want = r[aDst].want // MoveReverse
			w.landed[ci][aAcc], w.landed[ci][aSrc] = true, true
		}
	}
}

// settle checks what the previous op landed; a mismatch is a failed op.
func (w *worldRun) settle() {
	ok := true
	for ci := range w.refs {
		for a := range w.refs[ci] {
			if w.landed[ci][a] {
				w.landed[ci][a] = false
				if !w.refs[ci][a].settle() {
					ok = false
				}
			}
		}
	}
	if !ok {
		w.failed++
	}
}
