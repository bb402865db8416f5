package mpsim

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
)

// The scheduler: a conservative parallel discrete-event engine, and the
// only one.
//
// The world is partitioned into shards, each owning a contiguous,
// node-aligned range of world ranks with its own run queue, timer heap
// and timer freelist.  A shard executes its events by one rule
// (runWindow): fire every timer due at or before the earliest runnable
// process's clock, then resume that process.  Shards advance together
// in lookahead windows: the coordinator computes the globally earliest
// pending event M and a window bound limit = min(M + lookahead, next
// coordinator timer), and every shard then executes — in parallel —
// all of its events that precede the bound in the run's total event
// order.  The LogGP cost model makes this safe: any message a shard
// sends while executing inside the window arrives no earlier than its
// own position plus SendOverhead + Latency >= limit, so no shard can be
// handed an event in its past.
//
// A one-shard run is the same engine with nothing to synchronize: the
// coordinator is the calling goroutine, it runs shard 0's window
// itself, every timer kind lives in that shard's heap (route), and the
// window is unbounded — one run queue, one timer heap, one loop.
// Worlds get one shard when small, when the machine has no latency
// floor to derive a lookahead from, and when an obs.Tracer (single-
// threaded by design) is attached.
//
// Determinism is an invariant, not best effort.  Every pending event
// has a position in one total order — (virtual time, class, world
// rank, per-rank sequence number), where class orders timers before
// process resumptions at the same instant — and every shard count
// executes events in that order.  Cross-shard interactions are
// confined to positions the window protocol has already synchronized
// on, so runs are bit-identical at any shard count: same virtual-time
// results, same trace streams, same stats.
//
// Context discipline (what makes the -race run clean):
//
//   - Shard state (runq, local timers, proc queues/clocks, per-shard
//     trace buffer) is touched only by the goroutine running the
//     shard's window, or by the coordinator while every shard is
//     quiesced at a window barrier (the cmd/done channels give
//     happens-before).
//   - A process is a coroutine (launchProc), not a goroutine of its
//     own: p.next() runs it on the caller's thread until its next park,
//     so process code counts as the calling context above.  Only those
//     two contexts may call it — runWindow for the process it popped,
//     and reap (crash timers, abandon) from the window's goroutine for
//     its own ranks or from the quiesced coordinator for anyone's.
//   - The coordinator's heap and stats are touched by the coordinator,
//     or by shards under netLayer.mu (the reliable transport's send
//     path), which the coordinator never contends with because it only
//     runs while shards are parked.
//   - Cross-shard perfect-network messages are staged in the sending
//     shard's outbox and moved into the destination shard's heap at
//     the barrier.
//   - Scatter-gather payloads never cross a shard boundary while still
//     viewing live application storage: sendRef materializes any
//     unmaterialized payload bound for another shard into its own
//     pooled segment, so the destination shard only ever reads bytes
//     the sending shard will never mutate again.  Same-shard
//     deliveries stay zero-copy.

// autoShardWorlds is the world size at which a run with no
// MPSIM_SHARDS override gets more than one shard.  Below
// it the window barriers cost more than the parallelism wins, and the
// gated perf benchmarks pin the one-shard ns/op.
const autoShardWorlds = 256

// evKey is one event's position in the run's total order.  cls is 0
// for timers and 1 for process resumptions (all due timers fire before
// an equal-clock process resumes); the window bound uses cls -1 so
// that a bound at time t excludes every event at t.
type evKey struct {
	t    float64
	cls  int
	rank int
	seq  int
}

func (a evKey) less(b evKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.cls != b.cls {
		return a.cls < b.cls
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

func timerKey(tm *timer) evKey { return evKey{t: tm.at, cls: 0, rank: tm.rank, seq: tm.seq} }
func procKey(p *Proc) evKey    { return evKey{t: p.clock, cls: 1, rank: p.worldRank} }

var infKey = evKey{t: math.Inf(1)}

// shard is one scheduler shard: a contiguous rank range with its own
// run queue, timer heap, and freelist.  Shard 0's windows run on the
// coordinator's goroutine, every other shard's on its own worker.
type shard struct {
	w *World

	runq   procHeap
	timers timerHeap
	tc     timerCache

	live     int
	makespan float64

	// events buffers this shard's ranks' trace events; merged after
	// the run.
	events []Event

	// out stages cross-shard perfect-network deliveries created during
	// a window; the coordinator moves them to their destination shards
	// at the barrier.  Their arrival times are >= the window bound, so
	// staging them never delays an executable event.
	out []*timer

	failure *runFailure

	// cmd hands a worker its next window bound (nil for shard 0, which
	// has none).
	cmd chan evKey
}

// noteDone settles a finished (or unwound) process in its shard: live
// count and makespan.
func (s *shard) noteDone(p *Proc) {
	s.live--
	if p.finalClock > s.makespan {
		s.makespan = p.finalClock
	}
}

// nextKey is the position of the shard's earliest pending event.
// Coordinator-only (quiesced).
func (s *shard) nextKey() evKey {
	k := infKey
	if len(s.timers) > 0 {
		k = timerKey(s.timers[0])
	}
	if len(s.runq) > 0 {
		if pk := procKey(s.runq[0]); pk.less(k) {
			k = pk
		}
	}
	return k
}

// worker runs windows as the coordinator hands them out.
func (s *shard) worker(done chan<- struct{}) {
	for limit := range s.cmd {
		s.runWindow(limit)
		done <- struct{}{}
	}
}

// runWindow executes every shard event that precedes limit: fire due
// timers (at <= next runnable clock) first, then resume the earliest
// runnable process — smallest clock, ties broken by world rank, which
// keeps link reservations in near-causal order.
func (s *shard) runWindow(limit evKey) {
	w := s.w
	for {
		for len(s.timers) > 0 && timerKey(s.timers[0]).less(limit) &&
			(len(s.runq) == 0 || s.timers[0].at <= s.runq[0].clock) {
			w.fireTimer(s.timers.pop(), &s.tc)
		}
		if len(s.runq) == 0 || !procKey(s.runq[0]).less(limit) {
			return
		}
		p := s.runq.remove(0)
		p.next()
		switch p.state {
		case stateDone:
			s.noteDone(p)
			if s.failure != nil || s.live == 0 {
				// Failed, or possibly over: whether the run goes on is the
				// coordinator's call, and timers still pending here fire
				// only if it does.
				return
			}
		case stateRunnable:
			s.runq.push(p)
		case stateBlocked:
			// Parked until a matching message arrives; the sender moves
			// it back to the run queue.
		}
	}
}

// route registers a freshly stamped timer with the heap that may fire
// it.  A lone shard owns every rank, so it fires every kind.  With
// more, tMsg fires at its destination's shard (pushed directly when
// the sender owns it, staged in the sender's outbox otherwise) and
// tWake is the target process's own registration; every other kind
// (transport packets, crash plumbing) touches state on both
// sides of a shard boundary and goes to the coordinator, which fires
// it while the shards are quiesced (shard-side creators hold
// netLayer.mu).
func (w *World) route(tm *timer) {
	src := w.procs[tm.rank].shard
	switch {
	case len(w.shards) == 1:
		src.timers.push(tm)
	case tm.kind == tMsg:
		if dst := w.procs[tm.dst].shard; dst == src {
			dst.timers.push(tm)
		} else {
			src.out = append(src.out, tm)
		}
	case tm.kind == tWake:
		tm.p.shard.timers.push(tm)
	default:
		w.timers.push(tm)
	}
}

// shardBounds partitions world ranks into up to n contiguous ranges
// aligned to node boundaries (a node's processes exchange zero-latency
// shared-memory messages, so splitting one would void the lookahead).
// Returns the range starts.
func shardBounds(w *World, n int) []int {
	bounds := []int{0}
	size := len(w.procs)
	for i := 1; i < n; i++ {
		b := i * size / n
		for b > 0 && b < size && w.procs[b].node == w.procs[b-1].node {
			b++
		}
		if b > bounds[len(bounds)-1] && b < size {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

// resolveShards picks the shard count for a run: the MPSIM_SHARDS
// environment variable, then auto-sharding of large worlds across
// min(GOMAXPROCS, nodes).  Returns 1 whenever more
// cannot preserve behavior: an observability tracer is attached
// (obs.Tracer is single-threaded by design), or the machine has no
// latency floor to derive lookahead from.
func (w *World) resolveShards(cfg Config) int {
	// Validate the environment override before any early return: a
	// typo'd MPSIM_SHARDS that was silently ignored would make every
	// "why isn't it sharding" investigation start from a lie.
	s := shardsFromEnv()
	if cfg.Obs != nil {
		return 1
	}
	if w.safeLookahead() <= 0 {
		return 1
	}
	if s == 0 {
		if len(w.procs) < autoShardWorlds {
			return 1
		}
		s = runtime.GOMAXPROCS(0)
	}
	if s > len(w.nodes) {
		s = len(w.nodes)
	}
	if s > len(w.procs) {
		s = len(w.procs)
	}
	return s
}

// shardsFromEnv reads and validates the MPSIM_SHARDS override.  An
// unset or empty variable, like "0", requests automatic resolution.
// Anything that is not a non-negative integer panics with a clear
// error — silently ignoring a typo would leave the run on a shard count
// the operator did not ask for.
func shardsFromEnv() int {
	env := os.Getenv("MPSIM_SHARDS")
	if env == "" {
		return 0
	}
	v, err := strconv.Atoi(env)
	if err != nil {
		panic(fmt.Sprintf("mpsim: invalid MPSIM_SHARDS=%q: not an integer (use a non-negative shard count; 0 = automatic)", env))
	}
	if v < 0 {
		panic(fmt.Sprintf("mpsim: invalid MPSIM_SHARDS=%q: negative shard count (use a non-negative value; 0 = automatic)", env))
	}
	return v
}

// safeLookahead is the largest window the cost model guarantees: any
// event a process schedules beyond its own shard while executing at
// position t lands at or after t + SendOverhead + Latency (perfect
// network and reliable-transport deliveries both pay the send overhead
// and then the wire latency; retransmit timers land later still, see
// rtoFor).
func (w *World) safeLookahead() float64 {
	return w.machine.SendOverhead + w.machine.Latency
}

// partition splits the world into up to n shards and binds every
// process to its own.
func (w *World) partition(n int) {
	bounds := shardBounds(w, n)
	for i, lo := range bounds {
		hi := len(w.procs)
		if i+1 < len(bounds) {
			hi = bounds[i+1]
		}
		s := &shard{
			w:    w,
			live: hi - lo,
		}
		for _, p := range w.procs[lo:hi] {
			p.shard = s
		}
		w.shards = append(w.shards, s)
	}
	w.lookahead = w.safeLookahead()
	if len(w.shards) == 1 {
		w.lookahead = math.Inf(1)
	}
}

// coordinate is the coordinator loop: fire due coordinator timers while
// the shards are quiesced, hand out one lookahead window, barrier, move
// staged cross-shard deliveries, repeat.  It returns the failure of
// the run, if a process body panicked, after unwinding every other
// process.
func (w *World) coordinate() *runFailure {
	done := make(chan struct{}, len(w.shards)-1)
	for _, s := range w.shards[1:] {
		s.cmd = make(chan evKey)
		go s.worker(done)
	}
	defer func() {
		for _, s := range w.shards[1:] {
			close(s.cmd)
		}
	}()
	for {
		if f := w.collectFailure(); f != nil {
			w.abandon()
			return f
		}
		live := 0
		minKey := infKey
		for _, s := range w.shards {
			live += s.live
			if k := s.nextKey(); k.less(minKey) {
				minKey = k
			}
		}
		if live == 0 {
			return nil
		}
		// Fire coordinator timers that precede every shard event.  Each
		// fire may wake processes or create new timers, so recompute per
		// iteration.
		if len(w.timers) > 0 && timerKey(w.timers[0]).less(minKey) {
			w.fireTimer(w.timers.pop(), &w.tc)
			continue
		}
		if math.IsInf(minKey.t, 1) {
			w.panicDeadlock()
		}
		limit := evKey{t: minKey.t + w.lookahead, cls: -1}
		if len(w.timers) > 0 {
			if gk := timerKey(w.timers[0]); gk.less(limit) {
				limit = gk
			}
		}
		launched := 0
		for _, s := range w.shards[1:] {
			if s.nextKey().less(limit) {
				s.cmd <- limit
				launched++
			}
		}
		w.shards[0].runWindow(limit)
		for ; launched > 0; launched-- {
			<-done
		}
		for _, s := range w.shards {
			for _, tm := range s.out {
				w.procs[tm.dst].shard.timers.push(tm)
			}
			s.out = s.out[:0]
		}
	}
}

// collectFailure returns the failure to report, preferring the one at
// the earliest virtual position (then lowest rank) so the abort is
// deterministic even if several shards failed in one window.
func (w *World) collectFailure() *runFailure {
	var f *runFailure
	fClock := math.Inf(1)
	for _, s := range w.shards {
		if s.failure == nil {
			continue
		}
		c := w.procs[s.failure.rank].finalClock
		if f == nil || c < fClock || (c == fClock && s.failure.rank < f.rank) {
			f, fClock = s.failure, c
		}
	}
	return f
}

// mergeStats folds per-shard results into the world's stats after all
// shards have quiesced for the last time.
func (w *World) mergeStats() {
	for _, s := range w.shards {
		if s.makespan > w.stats.MakespanSeconds {
			w.stats.MakespanSeconds = s.makespan
		}
	}
	if w.trace == nil {
		return
	}
	// A lone shard's buffer is the run's execution order, and stays so.
	evs := w.shards[0].events
	if len(w.shards) > 1 {
		for _, s := range w.shards[1:] {
			evs = append(evs, s.events...)
		}
		// Per-rank subsequences are already in execution order (every
		// rank's events land in one shard buffer), so a stable sort on
		// (time, rank) yields the canonical stream: the same Timeline and
		// per-rank event order at every shard count.
		sort.SliceStable(evs, func(a, b int) bool {
			if evs[a].Time != evs[b].Time {
				return evs[a].Time < evs[b].Time
			}
			return evs[a].Rank < evs[b].Rank
		})
	}
	w.trace.Events = evs
}
