package serve

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/pcxxrt"
)

// The resident world.  mpsim worlds run their program bodies to
// completion, so a daemon cannot "call into" a world per request.
// Instead the server keeps one long-running world per coupling shape
// (source procs, destination procs); its union-rank-0 body blocks on a
// real Go channel pulling batches of tenant commands.  Blocking a body
// on external input is safe: the cooperative scheduler is waiting for
// the running proc's next simulated operation, every other rank is
// parked in the Bcast below, and no virtual event is pending — the
// world simply holds still until the next batch arrives.  Rank 0 then
// broadcasts the encoded batch through the simulated network, every
// rank executes the same deterministic command stream, and rank 0
// hands each op's result back on a buffered reply channel.
//
// Per-rank core.ScheduleCaches live in the body for the world's whole
// life, which is the point of the service: tenant B declaring the
// distribution pair tenant A already coupled gets A's schedules warm.

// worldKey is the coupling shape a resident world serves.
type worldKey struct {
	srcProcs, dstProcs int
}

// Command codes inside a broadcast batch.
const (
	cmdOpen     = 1 // build objects + schedule for a new coupling handle
	cmdMove     = 2 // execute one data move on an open handle
	cmdClose    = 3 // drop a handle (schedules stay cached)
	cmdShutdown = 4 // end the batch loop; the world runs to completion
)

// op is one tenant command in flight to a resident world.
type op struct {
	cmd    int
	handle int64

	// cmdOpen
	src, dst DistSpec

	// cmdMove
	moveKind int
	seed     int64

	// reply, buffered cap 1, is written once by the world's rank 0
	// (leader); only ops submitted through runner.do carry one.
	reply chan opReply

	// from is the tenant session that submitted the op, nil for the
	// daemon's own (revival replays, Standalone).  leave marks the
	// closes of a departing session: its membership ends with them.
	// The dispatcher reads both; they never enter the broadcast.
	from  *tenantState
	leave bool
}

// opReply is the leader's answer to one op.
type opReply struct {
	err   error
	warm  bool // cmdOpen: the schedule came out of the shared cache
	hash  uint64
	elems int     // cmdOpen: the schedule's global element count
	cost  float64 // virtual seconds the op took on the leader
	evict int     // leader-rank cumulative schedule-cache evictions
}

// runnerConfig parameterizes one resident-world incarnation.
type runnerConfig struct {
	key      worldKey
	flush    time.Duration // bound on waiting for an idle member; 0 dispatches every op immediately
	maxBatch int           // ops per broadcast
	gen      int           // incarnation ordinal (0 = first world for this key)
	panicAt  int           // >0: every rank panics at its panicAt'th batch (chaos hook)
	cacheCap int           // per-rank ScheduleCache entry bound; 0 = unbounded
}

// runner owns one resident world: the dispatcher goroutine batching
// submissions, and the goroutine blocked in mpsim.Run.
type runner struct {
	cfg runnerConfig
	key worldKey

	submit  chan *op
	batches chan []*op
	quit    chan struct{} // closes the dispatcher on clean shutdown
	done    chan struct{} // closed when the world goroutine exits

	mu      sync.Mutex
	failure error // set before done closes when the world panicked

	// onBatch, when set, observes each dispatched batch: its size, and
	// whether the flush window closed it.
	onBatch func(ops int, expired bool)
}

// newRunner starts a resident world.
func newRunner(cfg runnerConfig) *runner {
	if cfg.maxBatch < 1 {
		cfg.maxBatch = 1
	}
	r := &runner{
		cfg:     cfg,
		key:     cfg.key,
		submit:  make(chan *op),
		batches: make(chan []*op, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.dispatch()
	go r.run()
	return r
}

// run executes the world to completion, converting a simulation panic
// into ErrWorldFailed for everyone waiting on this runner.  Shards is
// left on automatic: small worlds get one scheduler shard, soak-scale
// worlds (≥256 union ranks) several — the leader blocking on the batch
// channel is safe either way, because a proc waiting on external input
// is running (not Recv-blocked), so the deadlock detector cannot trip
// on it.  mpsim unwinds every rank before it panics, so a dead world
// leaves no goroutines behind for its replacement to pile onto.
func (r *runner) run() {
	defer close(r.done)
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			r.failure = fmt.Errorf("%w: %v", ErrWorldFailed, v)
			r.mu.Unlock()
		}
	}()
	mpsim.Run(mpsim.Config{
		Machine: mpsim.SP2(),
		Programs: []mpsim.ProgramSpec{
			{Name: "src", Procs: r.key.srcProcs, ProcsPerNode: 1, Body: r.body},
			{Name: "dst", Procs: r.key.dstProcs, ProcsPerNode: 1, Body: r.body},
		},
	})
}

// failErr is the error for ops cut off by the world ending.
func (r *runner) failErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failure != nil {
		return r.failure
	}
	return ErrShuttingDown
}

// failed reports whether the world is gone.
func (r *runner) failed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// do submits one op and waits for the leader's reply.
func (r *runner) do(o *op) (opReply, error) {
	o.reply = make(chan opReply, 1)
	select {
	case r.submit <- o:
	case <-r.done:
		return opReply{}, r.failErr()
	}
	select {
	case rep := <-o.reply:
		return rep, rep.err
	case <-r.done:
		return opReply{}, r.failErr()
	}
}

// stop shuts the resident world down and waits for it to exit.
func (r *runner) stop() {
	o := &op{cmd: cmdShutdown, reply: make(chan opReply, 1)}
	select {
	case r.submit <- o:
	case <-r.done:
	}
	<-r.done
	close(r.quit)
}

// dispatch coalesces submissions into batches.  A session is
// sequential by protocol, so a batch holding one op from every member
// session cannot grow, and ships at once.  The flush window bounds the
// wait for a member that has not submitted (see members).  The daemon's
// own ops (nil from) never complete a batch, so with no members they
// ship alone at once; a lone tenant never waits either.
func (r *runner) dispatch() {
	m := members{last: make(map[*tenantState]int)}
	for {
		var first *op
		select {
		case first = <-r.submit:
		case <-r.done:
			return
		case <-r.quit:
			return
		}
		batch := []*op{first}
		m.seq++
		m.have = 0
		expired := false
		if first.cmd != cmdShutdown && r.cfg.flush > 0 {
			m.note(first)
			batch, expired = r.collect(batch, &m)
		}
		if r.onBatch != nil {
			r.onBatch(len(batch), expired)
		}
		select {
		case r.batches <- batch:
		case <-r.done:
			err := r.failErr()
			for _, o := range batch {
				if o.reply != nil {
					o.reply <- opReply{err: err}
				}
			}
			return
		}
	}
}

// collect grows a batch until every member has an op in it, it reaches
// the batch limit, a shutdown joins it, or the flush window expires;
// it reports whether the window closed the batch.
func (r *runner) collect(batch []*op, m *members) (_ []*op, expired bool) {
	if m.complete() || len(batch) >= r.cfg.maxBatch {
		return batch, false
	}
	timer := time.NewTimer(r.cfg.flush)
	defer timer.Stop()
	for {
		select {
		case o := <-r.submit:
			batch = append(batch, o)
			if o.cmd == cmdShutdown {
				return batch, false
			}
			m.note(o)
			if m.complete() || len(batch) >= r.cfg.maxBatch {
				return batch, false
			}
		case <-timer.C:
			m.dropAbsent()
			return batch, true
		case <-r.done:
			return batch, false
		}
	}
}

// members is the dispatcher's set of sessions feeding its world.  A
// session joins with its first op and leaves with its reclaim closes
// (op.leave), or when a flush window expires on a batch it has no op
// in; it joins again with its next op.
type members struct {
	last map[*tenantState]int // member → the last batch it had an op in
	seq  int                  // ordinal of the batch being collected
	have int                  // members with an op in that batch
}

// note records that o joined the batch being collected.
func (m *members) note(o *op) {
	switch {
	case o.from == nil:
	case o.leave:
		if m.last[o.from] == m.seq {
			m.have--
		}
		delete(m.last, o.from)
	case m.last[o.from] != m.seq:
		m.last[o.from] = m.seq
		m.have++
	}
}

// complete reports whether every member has an op in the batch.
func (m *members) complete() bool { return m.have == len(m.last) }

// dropAbsent removes the members with no op in the batch.
func (m *members) dropAbsent() {
	for st, last := range m.last {
		if last != m.seq {
			delete(m.last, st)
		}
	}
}

// encodeBatch serializes a batch for the in-world broadcast.
func encodeBatch(batch []*op) []byte {
	var w codec.Writer
	w.PutInt32(int32(len(batch)))
	for _, o := range batch {
		w.PutInt32(int32(o.cmd))
		w.PutInt64(o.handle)
		switch o.cmd {
		case cmdOpen:
			putSpec(&w, &o.src)
			putSpec(&w, &o.dst)
		case cmdMove:
			w.PutInt32(int32(o.moveKind))
			w.PutInt64(o.seed)
		}
	}
	return w.Bytes()
}

// decodeBatch rebuilds the batch on non-leader ranks.
func decodeBatch(enc []byte) []*op {
	r := codec.NewReader(enc)
	n := int(r.Int32())
	batch := make([]*op, n)
	for i := range batch {
		o := &op{cmd: int(r.Int32()), handle: r.Int64()}
		switch o.cmd {
		case cmdOpen:
			o.src = readSpec(r)
			o.dst = readSpec(r)
		case cmdMove:
			o.moveKind = int(r.Int32())
			o.seed = r.Int64()
		}
		batch[i] = o
	}
	return batch
}

// resident is one rank's state for one open coupling handle.
type resident struct {
	isSrc bool
	side  side
	sched *core.Schedule
	part  [8]byte // the landing share's digest, sent to the leader each move
}

// body is the SPMD function every rank of the resident world runs: a
// batch loop over broadcast command streams.  All state that must
// agree across ranks (open handles, cache contents) is driven by the
// identical decoded batches, so it stays consistent by construction.
func (r *runner) body(p *mpsim.Proc) {
	coupling, err := core.CoupleByName(p, "src", "dst")
	if err != nil {
		panic(err)
	}
	ctx := core.NewCtx(p, p.Comm())
	cache := core.NewScheduleCache()
	cache.SetLimit(r.cfg.cacheCap)
	leader := coupling.Union.Rank() == 0
	open := make(map[int64]*resident)
	batches := 0
	for {
		var batch []*op
		if leader {
			batch = <-r.batches
			// The encoded batch goes down the broadcast tree as a payload
			// that owns it: every send on the way references the same
			// bytes, no per-send flatten.
			pay := p.BufPool().OwnPayload(encodeBatch(batch))
			coupling.Union.BcastPayload(0, pay)
			pay.Release()
		} else {
			batch = decodeBatch(coupling.Union.Bcast(0, nil))
		}
		batches++
		if r.cfg.panicAt > 0 && batches == r.cfg.panicAt {
			// Injected world failure (Options.WorldPanic).  Every rank
			// panics at the same point after the broadcast, so all procs
			// die together and the world tears down without tripping
			// deadlock detection; the batch's ops are never answered and
			// their waiters get ErrWorldFailed from runner.done closing.
			panic(fmt.Sprintf("injected world panic at batch %d (incarnation %d)", batches, r.cfg.gen))
		}
		for _, o := range batch {
			if o.cmd == cmdShutdown {
				if leader && o.reply != nil {
					o.reply <- opReply{}
				}
				return
			}
			t0 := p.Clock()
			var rep opReply
			switch o.cmd {
			case cmdOpen:
				rep = execOpen(p, ctx, coupling, cache, open, o)
			case cmdMove:
				rep = execMove(p, coupling, open, o)
			case cmdClose:
				delete(open, o.handle)
			}
			if leader && o.reply != nil {
				rep.cost = p.Clock() - t0
				rep.evict = cache.Evictions()
				o.reply <- rep
			}
		}
	}
}

// execOpen builds this rank's side of the coupling and resolves its
// schedule through the shared cache.  Schedule construction is
// collective: the cache key is identical on every rank, so either all
// ranks hit (no communication) or all ranks build together.
func execOpen(p *mpsim.Proc, ctx *core.Ctx, coupling *core.Coupling,
	cache *core.ScheduleCache, open map[int64]*resident, o *op) opReply {
	isSrc := p.Program() == "src"
	spec := &o.src
	if !isSrc {
		spec = &o.dst
	}
	sd, err := buildSide(ctx, spec)
	if err != nil {
		return opReply{err: err}
	}
	hits0, _ := cache.Counters()
	sched, err := cache.Get(PairKey(&o.src, &o.dst), o.src.elem(), func() (*core.Schedule, error) {
		cs := &core.Spec{Lib: sd.lib, Obj: sd.obj, Set: sd.set, Ctx: ctx}
		if isSrc {
			return core.ComputeSchedule(coupling, cs, nil, core.Cooperation)
		}
		return core.ComputeSchedule(coupling, nil, cs, core.Cooperation)
	})
	if err != nil {
		return opReply{err: err}
	}
	hits1, _ := cache.Counters()
	open[o.handle] = &resident{isSrc: isSrc, side: sd, sched: sched}
	return opReply{warm: hits1 > hits0, elems: sched.Elems()}
}

// execMove runs one data move on an open handle: fill the sending
// side from the op's seed, execute the schedule, then digest each rank's
// share of the landing side where it lies and sum the partials on the
// leader.  A rank with no landing share sends an empty part.
func execMove(p *mpsim.Proc, coupling *core.Coupling, open map[int64]*resident, o *op) opReply {
	res, ok := open[o.handle]
	if !ok {
		return opReply{err: fmt.Errorf("%w: handle %d", ErrUnknownCoupling, o.handle)}
	}
	sd, sched := &res.side, res.sched
	switch o.moveKind {
	case OpMove, OpMoveAdd:
		if res.isSrc {
			sd.fill(o.seed)
			if o.moveKind == OpMove {
				sched.MoveSend(sd.obj)
			} else {
				sched.MoveAddSend(sd.obj)
			}
		} else if o.moveKind == OpMove {
			sched.MoveRecv(sd.obj)
		} else {
			sched.MoveAddRecv(sd.obj)
		}
	case OpMoveReverse:
		if res.isSrc {
			sched.MoveReverseRecv(sd.obj)
		} else {
			sd.fill(o.seed)
			sched.MoveReverseSend(sd.obj)
		}
	default:
		return opReply{err: fmt.Errorf("%w: move kind %d", ErrBadSpec, o.moveKind)}
	}

	// The landing side is the destination, except for reverse moves.
	part := res.part[:0]
	if res.isSrc == (o.moveKind == OpMoveReverse) {
		part = binary.LittleEndian.AppendUint64(part, sd.digest())
	}
	parts := coupling.Union.Gather(0, part)
	var rep opReply
	for _, part := range parts {
		if len(part) == 8 {
			rep.hash += binary.LittleEndian.Uint64(part)
		}
	}
	return rep
}

// side is one rank's object on one side of a coupling, and where its
// elements live: the library's OwnedPositions runs, in ascending
// position order, taken at open.
type side struct {
	spec  DistSpec
	lib   core.Library
	obj   core.DistObject
	set   *core.SetOfRegions
	owned []core.LocRun
}

// fill sets every owned element from seed.  Element k of a run is at
// offset Off + k·Stride, its words from that offset × words.
func (sd *side) fill(seed int64) {
	mem, words := sd.obj.LocalMem().Float64s(), sd.spec.words()
	for _, r := range sd.owned {
		for k := int32(0); k < r.Count; k++ {
			pos, at := int(r.Pos+k), int(r.Off+k*r.Stride)*words
			elem := mem[at : at+words]
			for wd := range elem {
				elem[wd] = fillValue(seed, pos, wd)
			}
		}
	}
}

// digest is this rank's share of the side's content digest (model.go),
// read straight from storage through the owned runs.
func (sd *side) digest() uint64 {
	mem, words := sd.obj.LocalMem().Float64s(), sd.spec.words()
	var h uint64
	for _, r := range sd.owned {
		for k := int32(0); k < r.Count; k++ {
			pos, at := int(r.Pos+k), int(r.Off+k*r.Stride)*words
			for wd, v := range mem[at : at+words] {
				h += weight(pos*words+wd) * uint64(int64(v))
			}
		}
	}
	return h
}

// buildSide constructs the calling rank's portion of the object a spec
// declares, and asks its library where the rank's elements live.  The
// inquiry is collective over the side's program; every move fills and
// digests through its runs.
func buildSide(ctx *core.Ctx, spec *DistSpec) (side, error) {
	sd := side{spec: *spec}
	rank := ctx.Comm.Rank()
	switch spec.Library {
	case "pcxxrt":
		c, err := pcxxrt.NewCollection(spec.Shape[0], spec.Procs, spec.words(), rank)
		if err != nil {
			return side{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		sd.lib, sd.obj = pcxxrt.Library, c
		sd.set = core.NewSetOfRegions(pcxxrt.RangeRegion{Lo: 0, Hi: spec.Shape[0], Step: 1})
	case "hpfrt", "mbparti":
		dist, err := distFor(spec)
		if err != nil {
			return side{}, err
		}
		if spec.Library == "hpfrt" {
			sd.lib, sd.obj = hpfrt.Library, hpfrt.NewArray(dist, rank)
		} else {
			sd.lib, sd.obj = mbparti.Library, mbparti.MustNewArray(dist, rank, 0)
		}
		sd.set = core.NewSetOfRegions(gidx.FullSection(gidx.Shape(spec.Shape)))
	default:
		return side{}, fmt.Errorf("%w: unknown library %q", ErrBadSpec, spec.Library)
	}
	sd.owned = sd.lib.OwnedPositions(ctx, sd.obj, sd.set, nil)
	return sd, nil
}

// distFor maps a spec's layout to its distribution descriptor.
func distFor(spec *DistSpec) (*distarray.Dist, error) {
	switch spec.Layout {
	case "blockvec":
		d, err := distarray.NewDist(gidx.Shape{spec.Shape[0]}, []int{spec.Procs},
			[]distarray.Kind{distarray.Block})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		return d, nil
	case "rowblock":
		return hpfrt.RowBlockMatrix(spec.Shape[0], spec.Shape[1], spec.Procs), nil
	case "block2d":
		return distarray.MustBlock2D(spec.Shape[0], spec.Shape[1], spec.Procs), nil
	}
	return nil, fmt.Errorf("%w: layout %q", ErrBadSpec, spec.Layout)
}

// fillValue is the deterministic element generator the daemon and the
// Model share: a splitmix-style hash of (seed, position, word) folded
// to a small integer, so MoveAdd accumulation is exact in float64.
func fillValue(seed int64, pos, wd int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(pos)*0xbf58476d1ce4e5b9 + uint64(wd+1)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return float64(int64(x%4096) - 2048)
}
