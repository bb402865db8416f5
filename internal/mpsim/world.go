package mpsim

import (
	"fmt"
	"sort"
	"sync"

	"metachaos/internal/bufpool"
	"metachaos/internal/obs"
)

// ProgramSpec describes one SPMD program participating in a simulated
// run.  The paper's experiments use one program (Tables 1, 2, 5), two
// coupled peer programs (Tables 3, 4) and a client/server pair
// (Figures 10-15); each maps to one ProgramSpec per program.
type ProgramSpec struct {
	// Name labels the program in errors and statistics.
	Name string
	// Procs is the number of processes the program runs with.
	Procs int
	// ProcsPerNode is how many of the program's processes share one
	// node (and therefore one network link).  Zero means one per node.
	ProcsPerNode int
	// Body is the SPMD function every process of the program executes.
	Body func(p *Proc)
}

// Config assembles a full simulated run: the machine model plus the set
// of programs that will execute concurrently on disjoint nodes.
type Config struct {
	Machine  *Machine
	Programs []ProgramSpec
	// Trace enables event recording; the trace is returned in the
	// run's Stats.
	Trace bool
	// Fault, when non-nil, routes every inter-node transmission through
	// the fault injector (drops, duplicates, reordering, corruption).
	Fault FaultInjector
	// Reliable enables the reliable transport (sequence numbers, acks,
	// retransmission, dedup/reassembly) on inter-node links, restoring
	// in-order exactly-once delivery under faults.
	Reliable bool
	// Obs, when non-nil, records virtual-time spans and metrics for
	// every messaging operation (and, through the layers above, every
	// data-move phase).  nil keeps the hot paths allocation-free.
	Obs *obs.Tracer
	// Crash, when non-nil, supplies fail-stop crash faults: ranks die
	// at scheduled virtual times (and may restart).  See crash.go for
	// the failure model.  nil keeps every crash hook off the hot paths.
	Crash CrashPlan
}

// World is the simulated machine state for one run.  It owns every
// simulated process, the per-node link reservations, and the scheduler
// shards that execute them in virtual-time order (shard.go).
type World struct {
	machine   *Machine
	procs     []*Proc
	nodes     []*node
	stats     Stats
	trace     *Trace
	progRanks map[string][]int

	// shards partition the ranks among schedulers; always at least one.
	shards []*shard
	// lookahead is the conservative window the shards advance by, in
	// virtual seconds (+Inf for a lone shard, which has no peer to
	// outrun).
	lookahead float64

	// Observability (nil when Config.Obs was nil).  Counters are
	// resolved once here so per-message accounting never hits the
	// registry maps.
	obs  *obs.Tracer
	obsC obsCounters

	// timers is the coordinator's heap: the virtual-time events no
	// single shard may fire (see route).  Empty throughout a one-shard
	// run.
	timers timerHeap
	// tseq[r] is rank r's per-rank timer sequence counter: the third key
	// of the event total order (time, rank, seq).  Each rank registers
	// its timers in virtual-position order at every shard count, so the
	// numbering — and therefore every tie-break — does not depend on it.
	tseq []int
	// tc is the coordinator's timer freelist; shards carry their own.
	tc  timerCache
	net *netLayer

	// pool backs the zero-copy data plane: every payload and pooled
	// segment moving through this world comes from here.
	pool *bufpool.Pool

	// msgPool catches message-struct recycling overflow.  Per-proc
	// freelists (Proc.msgFree) serve the hot path without
	// synchronization, but structs migrate from sender to receiver on
	// claim, so one-directional traffic would drain every sender's list
	// forever; receivers overflow here and senders refill from here.
	msgPool sync.Pool

	// Crash-fault state (nil when Config.Crash was nil).
	crash *crashState
}

type runFailure struct {
	rank int
	prog string
	err  any // the panic value; nil when the body called runtime.Goexit (launchProc)
}

type node struct {
	id        int
	outFreeAt float64
	inFreeAt  float64
}

// procState tracks where a simulated process is in its lifecycle.
type procState int

const (
	stateRunnable procState = iota // queued to run, or running
	stateBlocked                   // waiting in Recv with no matching message
	stateDone
)

// Run executes the configured programs to completion and returns the
// accumulated statistics.  It panics with a descriptive error if any
// process body panics or if the run deadlocks (every live process is
// blocked in Recv).  A body that calls runtime.Goexit — in a test,
// t.FailNow, t.Fatal or t.Skip — fails the run the same way, except
// that once every other rank is unwound the exit carries on in the
// goroutine that called Run (its deferred calls run, Run never
// returns), at every shard count: a t.Fatal inside a Body ends the
// test that called Run.
func Run(cfg Config) *Stats {
	w, err := newWorld(cfg)
	if err != nil {
		panic(err)
	}
	return w.run()
}

// run drives the world to completion and settles its statistics.
func (w *World) run() *Stats {
	if f := w.coordinate(); f != nil {
		if f.err == nil {
			w.procs[f.rank].next() // finishes the parked runtime.Goexit here; does not return
		}
		panic(fmt.Sprintf("mpsim: program %q rank %d panicked: %v", f.prog, f.rank, f.err))
	}
	w.mergeStats()
	w.drainPlane()
	w.stats.Trace = w.trace
	w.stats.Crashes = w.crashRecords()
	if w.obs != nil {
		w.obs.MetricsRegistry().Gauge("mpsim.makespan_seconds").Set(w.stats.MakespanSeconds)
	}
	return &w.stats
}

// drainPlane gives back the payload references a finished run leaves
// parked: messages nobody received and, on an imperfect network,
// packets whose delivery, ack or retransmission was still in the future
// when the last process finished.  Nothing fires after this point, so
// a pool that does not read zero afterwards is a reference leaked by
// something that ran — which is what the drain assertions test.
func (w *World) drainPlane() {
	heaps := []timerHeap{w.timers}
	for _, s := range w.shards {
		heaps = append(heaps, s.timers)
	}
	for _, h := range heaps {
		for _, tm := range h {
			switch tm.kind {
			case tMsg:
				tm.msg.pay.Release()
			case tDeliver:
				tm.pkt.pay.Release()
			case tRetransmit:
				tm.pkt.releaseRef() // an unacked packet's own reference
			}
		}
	}
	for _, p := range w.procs {
		for _, m := range p.queue {
			m.pay.Release()
		}
	}
	if w.net != nil {
		for _, ls := range w.net.links {
			for _, h := range ls.held {
				h.pay.Release()
			}
		}
	}
}

// RunSPMD is the common single-program case: n processes, one per node,
// all running body.
func RunSPMD(m *Machine, n int, body func(p *Proc)) *Stats {
	return Run(Config{
		Machine:  m,
		Programs: []ProgramSpec{{Name: "spmd", Procs: n, Body: body}},
	})
}

func newWorld(cfg Config) (*World, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("mpsim: config has no machine")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Programs) == 0 {
		return nil, fmt.Errorf("mpsim: config has no programs")
	}
	w := &World{
		machine:   cfg.Machine,
		progRanks: make(map[string][]int),
		pool:      bufpool.New(),
	}
	if cfg.Trace {
		w.trace = &Trace{}
	}
	if cfg.Obs != nil {
		w.obs = cfg.Obs
		w.obsC.resolve(cfg.Obs.MetricsRegistry())
	}
	if cfg.Fault != nil || cfg.Reliable {
		w.net = newNetLayer(w, cfg.Fault, cfg.Reliable)
	}
	w.stats.Machine = cfg.Machine.Name
	nodeID := 0
	worldRank := 0
	for pi, spec := range cfg.Programs {
		if spec.Procs <= 0 {
			return nil, fmt.Errorf("mpsim: program %q has %d procs", spec.Name, spec.Procs)
		}
		if spec.Body == nil {
			return nil, fmt.Errorf("mpsim: program %q has no body", spec.Name)
		}
		ppn := spec.ProcsPerNode
		if ppn <= 0 {
			ppn = 1
		}
		progRanks := make([]int, spec.Procs)
		for r := 0; r < spec.Procs; r++ {
			nid := nodeID + r/ppn
			for len(w.nodes) <= nid {
				w.nodes = append(w.nodes, &node{id: len(w.nodes)})
			}
			p := &Proc{
				world:     w,
				worldRank: worldRank,
				progIndex: pi,
				progName:  spec.Name,
				node:      w.nodes[nid],
				state:     stateRunnable,
				heapIdx:   -1,
			}
			w.procs = append(w.procs, p)
			progRanks[r] = worldRank
			if w.obs != nil {
				w.obs.SetRankName(worldRank, fmt.Sprintf("%s/%d", spec.Name, r))
			}
			worldRank++
		}
		nodeID = len(w.nodes)
		for _, r := range progRanks {
			w.procs[r].progRanks = progRanks
		}
		if _, dup := w.progRanks[spec.Name]; dup {
			return nil, fmt.Errorf("mpsim: two programs named %q", spec.Name)
		}
		w.progRanks[spec.Name] = progRanks
	}
	allRanks := make([]int, len(w.procs))
	for i := range allRanks {
		allRanks[i] = i
	}
	for _, p := range w.procs {
		p.worldComm = newComm(p, allRanks, 1)
		p.progComm = newComm(p, p.progRanks, 2+p.progIndex)
	}
	w.stats.PerRank = make([]RankStats, len(w.procs))
	w.tseq = make([]int, len(w.procs))
	// The shards exist before anything arms a timer, so route places
	// every event — the crash plan included — by one rule.
	w.partition(w.resolveShards(cfg))
	if cfg.Crash != nil {
		w.initCrash(cfg.Crash, cfg.Programs)
	}
	// Every process gets its coroutine, started by its shard's first
	// resume.
	for _, p := range w.procs {
		w.launchProc(p, cfg.Programs[p.progIndex].Body)
		p.shard.runq.push(p)
	}
	return w, nil
}

// launchProc makes body p's coroutine; nothing of it runs until the
// first p.next(), from runWindow or reap.  The coroutine always runs to
// its end — body returns, panics, or is unwound by a crashPanic at a
// scheduling point — and settles p as stateDone on the way out, where
// next's caller reads it.  A crashPanic is a clean fail-stop death (or
// an abandoned run's poison), not a run failure.
func (w *World) launchProc(p *Proc, body func(p *Proc)) {
	p.next = newCoroutine(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		returned := false
		defer func() {
			r := recover()
			if _, crashed := r.(crashPanic); !returned && !crashed && p.shard.failure == nil {
				p.shard.failure = &runFailure{rank: p.worldRank, prog: p.progName, err: r}
			}
			p.finalClock = p.clock
			p.state = stateDone
			if !returned && r == nil {
				// runtime.Goexit is unwinding body, and left to finish would take
				// next's caller — whichever goroutine runs this shard — with it.
				// Park as a failed rank instead; run resumes the exit from Run's
				// caller once every other rank is unwound.
				suspend(struct{}{})
			}
		}()
		p.checkKilled() // claimed before its first instruction
		body(p)
		returned = true
	})
}

// abandon unwinds every process whose coroutine has not finished, so a
// run that is about to panic leaves nothing parked behind it.  Only called
// with every shard quiesced.
func (w *World) abandon() {
	for _, p := range w.procs {
		if p.state != stateDone {
			p.killed = true
			w.reap(p)
		}
	}
}

// panicDeadlock reports a run in which every live process is blocked
// in Recv, after unwinding them.
func (w *World) panicDeadlock() {
	var desc []string
	for _, p := range w.procs {
		if p.state == stateBlocked {
			if p.wantsAny != nil {
				desc = append(desc, fmt.Sprintf("  %s/rank %d waiting for any of %d posted receives",
					p.progName, p.worldRank, len(p.wantsAny)))
			} else {
				desc = append(desc, fmt.Sprintf("  %s/rank %d waiting for src=%d tag=%d",
					p.progName, p.worldRank, p.wantSrc, p.wantTag))
			}
		}
	}
	sort.Strings(desc)
	msg := "mpsim: deadlock: every live process is blocked in Recv:\n"
	for _, d := range desc {
		msg += d + "\n"
	}
	if w.net != nil && !w.net.reliable {
		if dropped := w.stats.TotalDrops(); dropped > 0 {
			msg += fmt.Sprintf("  (%d messages were dropped by fault injection with no reliable transport; consider Config.Reliable)\n", dropped)
		}
	}
	w.abandon()
	panic(msg)
}

// wake moves a blocked process back to its shard's run queue.
func (w *World) wake(p *Proc) {
	p.state = stateRunnable
	p.shard.runq.push(p)
}

// procHeap is a binary min-heap of runnable processes on procKey, a
// strict total order.  It keeps each element's heapIdx current so the
// crash machinery can remove a specific process without draining the
// queue.
type procHeap []*Proc

func (h procHeap) less(i, j int) bool { return procKey(h[i]).less(procKey(h[j])) }

func (h procHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}

func (h procHeap) up(j int) {
	for ; j > 0 && h.less(j, (j-1)/2); j = (j - 1) / 2 {
		h.swap(j, (j-1)/2)
	}
}

// down sifts element i toward the leaves and reports whether it moved.
func (h procHeap) down(i int) bool {
	i0 := i
	for j := 2*i + 1; j < len(h); i, j = j, 2*j+1 {
		if j+1 < len(h) && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
	}
	return i > i0
}

func (h *procHeap) push(p *Proc) {
	p.heapIdx = len(*h)
	*h = append(*h, p)
	h.up(p.heapIdx)
}

// remove takes out the element at index i; remove(0) pops the minimum.
func (h *procHeap) remove(i int) *Proc {
	q := *h
	n := len(q) - 1
	p := q[i]
	q.swap(i, n)
	q[n] = nil
	q = q[:n]
	*h = q
	if i < n && !q.down(i) {
		q.up(i)
	}
	p.heapIdx = -1
	return p
}
