package mpsim

import (
	"fmt"

	"metachaos/internal/bufpool"
)

// AnySource and AnyTag are wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// message is one in-flight point-to-point message.  It holds one
// reference on its payload, released when the message is claimed
// (ownership transfers to the receiver) or dropped.
type message struct {
	src     int // world rank of sender
	tag     int
	pay     *bufpool.Payload
	arrival float64 // virtual time the last byte clears the sender side + latency
	xmit    float64 // wire occupancy, for receiver-side link reservation
	sentAt  float64 // sender's clock at the send; restart-wipe boundary
	local   bool    // self-send: skips link reservations
}

// maxFreeMsgs caps a process's message-struct freelist; msgSlab is how
// many structs one refill allocates.
const (
	maxFreeMsgs = 256
	msgSlab     = 16
)

// Proc is one simulated process.  All of a process's interaction with
// the simulated machine — messaging, collectives, clock charges — goes
// through its Proc, exactly as an MPI rank works through its
// communicator.  A Proc is only valid inside the Body function it was
// passed to and must not be shared across goroutines.
type Proc struct {
	world     *World
	worldRank int
	progIndex int
	progName  string
	progRanks []int
	node      *node

	worldComm *Comm
	progComm  *Comm

	clock      float64
	finalClock float64

	// The process body runs as a coroutine (launchProc): next runs it
	// until it parks or finishes, suspend is its own half, handing control
	// back to whoever called next.  state is what it parked as.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	state   procState
	// heapIdx is the process's position in its run queue, -1 while not
	// queued; maintained by procHeap so the scheduler can remove a
	// killed process without draining the heap.
	heapIdx int

	queue   []*message
	wantSrc int
	wantTag int
	// wantsAny is set instead of wantSrc/wantTag while the process is
	// blocked in recvAny (Waitany over several pending receives).
	wantsAny []recvWant

	// Waitany scratch, reused across calls.
	wantBuf []recvWant
	wantIdx []int

	// msgFree recycles message structs: sends pop from the sender's
	// list, claims push to the receiver's.  Symmetric steady-state
	// traffic (a move schedule) therefore sends without allocating.
	// Each list is touched only under its owner's scheduling domain.
	msgFree []*message
	// reqFree recycles Request structs (Irecv pops, Request.Free
	// pushes); a request always returns to the process it was posted
	// on.
	reqFree []*Request

	// Active WithTimeout deadline (virtual time; 0 = none) and the
	// registration id its timer must match to fire.
	deadlineAt  float64
	deadlineGen int
	// wakeErr is set by the scheduler (deadline expiry, peer abandoned)
	// before waking a blocked process; the blocking operation converts
	// it into a netPanic for WithTimeout to recover.
	wakeErr *NetError

	// Crash-fault state (see crash.go).  killed marks a process claimed
	// by a crash fault; it unwinds at its next scheduling point.
	killed bool

	// shard is the scheduler shard owning this process (see shard.go).
	shard *shard
}

// recvWant is one (world-rank source, wire tag) matcher of a blocked
// multi-receive.
type recvWant struct{ src, tag int }

// wantsMsg reports whether a blocked process would accept msg.
func (p *Proc) wantsMsg(m *message) bool {
	if p.wantsAny != nil {
		for _, w := range p.wantsAny {
			if matches(m, w.src, w.tag) {
				return true
			}
		}
		return false
	}
	return matches(m, p.wantSrc, p.wantTag)
}

// WorldRank returns the process's rank in the whole simulated machine,
// across all programs.
func (p *Proc) WorldRank() int { return p.worldRank }

// Rank returns the process's rank within its own program.
func (p *Proc) Rank() int { return p.progComm.Rank() }

// Size returns the number of processes in the process's own program.
func (p *Proc) Size() int { return len(p.progRanks) }

// WorldSize returns the total number of simulated processes.
func (p *Proc) WorldSize() int { return len(p.world.procs) }

// Program returns the name of the program this process belongs to.
func (p *Proc) Program() string { return p.progName }

// Comm returns the communicator spanning the process's own program.
func (p *Proc) Comm() *Comm { return p.progComm }

// World returns the communicator spanning every process of every
// program, used for inter-program communication.
func (p *Proc) World() *Comm { return p.worldComm }

// Machine returns the cost model of the simulated machine.
func (p *Proc) Machine() *Machine { return p.world.machine }

// ProgramRanks returns the world ranks of the named program's
// processes in program-rank order, or nil if no such program exists.
// The world layout is static, so this models each program knowing
// where its peers run (the paper's coupled programs are launched with
// knowledge of each other's hosts).
func (p *Proc) ProgramRanks(name string) []int {
	ranks, ok := p.world.progRanks[name]
	if !ok {
		return nil
	}
	return append([]int(nil), ranks...)
}

// Clock returns the process's current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// LocalStats returns a copy of the calling process's traffic counters
// so far, letting harness code attribute messages and bytes to
// individual phases of a run.
func (p *Proc) LocalStats() RankStats { return p.world.stats.PerRank[p.worldRank] }

// Charge advances the process's virtual clock by d seconds of local
// computation.  Negative charges are rejected.
func (p *Proc) Charge(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("mpsim: rank %d charged negative time %g", p.worldRank, d))
	}
	p.clock += d
}

// ChargeFlops charges n floating point operations.
func (p *Proc) ChargeFlops(n int) { p.Charge(float64(n) * p.world.machine.FlopTime) }

// ChargeMemOps charges n irregular memory accesses.
func (p *Proc) ChargeMemOps(n int) { p.Charge(float64(n) * p.world.machine.MemOpTime) }

// ChargeDeref charges n distribution-dereference steps.
func (p *Proc) ChargeDeref(n int) { p.Charge(float64(n) * p.world.machine.DerefTime) }

// ChargeSectionOps charges n regular-section schedule-arithmetic steps.
func (p *Proc) ChargeSectionOps(n int) { p.Charge(float64(n) * p.world.machine.SectionOpTime) }

// ChargeCopy charges a local memory copy of n bytes.
func (p *Proc) ChargeCopy(bytes int) {
	p.Charge(float64(bytes) / p.world.machine.LocalCopyBandwidth)
}

// getMsg pops a recycled message struct, refilling from the world's
// shared overflow pool and then a slab at a time, so a cold world's
// first burst of sends costs one allocation per msgSlab messages.
func (p *Proc) getMsg() *message {
	if len(p.msgFree) == 0 {
		if m, ok := p.world.msgPool.Get().(*message); ok {
			return m
		}
		slab := make([]message, msgSlab)
		for i := range slab {
			p.msgFree = append(p.msgFree, &slab[i])
		}
	}
	n := len(p.msgFree)
	m := p.msgFree[n-1]
	p.msgFree = p.msgFree[:n-1]
	return m
}

// putMsg recycles a claimed message struct onto this process's
// freelist, spilling to the world pool when full so structs flow back
// to senders under one-directional traffic.  The caller must have
// extracted the contents first.
func (p *Proc) putMsg(m *message) {
	*m = message{}
	if len(p.msgFree) >= maxFreeMsgs {
		p.world.msgPool.Put(m)
		return
	}
	p.msgFree = append(p.msgFree, m)
}

// BufPool returns the world's shared buffer pool, the allocator behind
// the zero-copy payload path.
func (p *Proc) BufPool() *bufpool.Pool { return p.world.pool }

// Send transmits data to the process with the given world rank.  The
// send is buffered (it never blocks waiting for the receiver) and the
// data slice is copied, so the caller may reuse it immediately.  Tags
// must be non-negative; negative tags are reserved for collectives.
func (p *Proc) Send(to, tag int, data []byte) {
	if tag < 0 {
		panic(fmt.Sprintf("mpsim: rank %d: user tags must be >= 0, got %d", p.worldRank, tag))
	}
	p.send(to, tag, data)
}

// send is the flat send: the private copy of data travels as a payload
// that owns it, down the one path every message takes.  The message
// takes over the payload's only reference, so on a perfect network the
// receiver is its last holder and gets the copy itself.
func (p *Proc) send(to, tag int, data []byte) {
	buf := make([]byte, len(data))
	copy(buf, data)
	p.sendRef(to, tag, p.world.pool.OwnPayload(buf))
}

// sendPayload sends pay by reference: its bytes are NOT copied — the
// transport takes its own references and reads the segments until
// every delivered copy is consumed.  The caller keeps its reference
// and must not mutate storage the payload views until it has either
// observed the payload fully released or materialized it.
func (p *Proc) sendPayload(to, tag int, pay *bufpool.Payload) {
	pay.Retain()
	p.sendRef(to, tag, pay)
}

// sendRef is the send path; it takes over one of pay's references.
// The virtual-time cost model depends only on the byte length.
func (p *Proc) sendRef(to, tag int, pay *bufpool.Payload) {
	size := pay.Len()
	w := p.world
	if to < 0 || to >= len(w.procs) {
		panic(fmt.Sprintf("mpsim: rank %d sends to invalid rank %d", p.worldRank, to))
	}
	if w.crash != nil {
		p.checkKilled()
		if w.deadDetected(to, p.clock) {
			// Post-detection sends fail fast instead of vanishing.
			w.emit(Event{Time: p.clock, Rank: p.worldRank, Kind: EvPeerFail, Peer: to, Bytes: size})
			pay.Release()
			panic(netPanic{&NetError{Op: "send", Rank: p.worldRank, Peer: to, Err: ErrPeerDead}})
		}
	}
	sp := p.beginSpan("send")
	sp.SetPeer(to).SetBytes(size)
	m := w.machine
	dst := w.procs[to]
	if dst.shard != p.shard && !pay.Materialized() {
		// The destination shard reads the payload concurrently with this
		// shard's later instructions; sever the views of live storage
		// now.  Same-shard deliveries stay zero-copy — the executor
		// settles those at its own exit.
		pay.Materialize()
	}

	// The send-side cost model: where the message departs, how long it
	// occupies the wire, when its last byte lands.
	var depart, xmit, arrival float64
	local := true
	switch {
	case to == p.worldRank:
		p.clock += float64(size) / m.LocalCopyBandwidth
		arrival = p.clock
	case dst.node == p.node:
		// Same node, different process: shared-memory transfer.
		p.clock += m.SendOverhead + float64(size)*m.PerByteCPU
		arrival = p.clock + float64(size)/m.LocalCopyBandwidth
	default:
		// CPU: per-message overhead plus packing the payload.
		p.clock += m.SendOverhead + float64(size)*m.PerByteCPU
		xmit = m.transmitTime(size)
		depart = max(p.clock, p.node.outFreeAt)
		p.node.outFreeAt = depart + xmit
		arrival = depart + xmit + m.Latency
		local = false
	}
	w.emit(Event{Time: p.clock, Rank: p.worldRank, Kind: EvSend, Peer: to, Bytes: size})

	if !local && w.net != nil {
		// Imperfect network: the send-side cost model above is
		// unchanged, but delivery becomes a virtual-time event whose
		// fate the fault injector decides.  The transport holds its own
		// references from here on.
		w.net.send(p.worldRank, to, tag, pay, xmit, depart)
		pay.Release()
		sp.End(p.clock)
		p.yield()
		return
	}

	msg := p.getMsg()
	msg.src, msg.tag = p.worldRank, tag
	msg.arrival, msg.xmit, msg.local = arrival, xmit, local
	msg.pay = pay
	sp.End(p.clock)
	if !local && dst.shard != p.shard {
		// Cross-shard delivery is a virtual-time event at the message's
		// arrival: the destination shard observes it at a clock the
		// LogGP latency floor bounds away from now, which is what lets
		// shards run a lookahead window in parallel.  Every other path
		// — self, same-node, and intra-shard sends — bypasses the
		// mailbox and enqueues immediately.
		msg.sentAt = p.clock
		tm := p.shard.tc.get()
		tm.at, tm.rank, tm.kind, tm.msg, tm.dst = msg.arrival, p.worldRank, tMsg, msg, to
		w.addTimer(tm)
	} else {
		dst.queue = append(dst.queue, msg)
		if dst.state == stateBlocked && dst.wantsMsg(msg) {
			w.wake(dst)
		}
	}
	p.yield()
}

// Recv blocks until a message matching (from, tag) is available and
// returns its payload and actual source rank.  from may be AnySource and
// tag may be AnyTag.  Messages from the same source with the same tag
// are received in the order they were sent.
func (p *Proc) Recv(from, tag int) ([]byte, int) {
	if tag < 0 && tag != AnyTag {
		panic(fmt.Sprintf("mpsim: rank %d: user tags must be >= 0, got %d", p.worldRank, tag))
	}
	return p.recv(from, tag)
}

func (p *Proc) recv(from, tag int) ([]byte, int) {
	pay, src := p.recvMsg(from, tag)
	data := pay.Flatten()
	pay.Release()
	return data, src
}

// recvMsg is recv returning the claimed message's payload, whose
// reference the caller now owns.
func (p *Proc) recvMsg(from, tag int) (*bufpool.Payload, int) {
	for {
		p.checkKilled()
		for i, msg := range p.queue {
			if !matches(msg, from, tag) {
				continue
			}
			return p.claim(i)
		}
		p.checkBeforeBlock(from, nil)
		p.wantSrc, p.wantTag = from, tag
		p.park(stateBlocked)
		p.checkWakeErr()
	}
}

// claim removes queue[i], applies receive-side delivery costs, hands
// the message's payload reference to the caller, and recycles the
// message struct.
func (p *Proc) claim(i int) (*bufpool.Payload, int) {
	msg := p.queue[i]
	p.queue = append(p.queue[:i], p.queue[i+1:]...)
	p.deliver(msg)
	pay, src := msg.pay, msg.src
	p.putMsg(msg)
	return pay, src
}

// recvAny blocks until a message matching any entry of wants is
// available, claims the earliest-arriving match, and returns the index
// of the matched want plus the payload and source world rank.  Among
// equal arrival times the earliest-queued message wins, preserving
// per-(source, tag) FIFO order; claiming in arrival order is what lets
// an overlapped executor unpack lanes as they land instead of idling
// on a fixed peer order.
func (p *Proc) recvAny(wants []recvWant) (int, *bufpool.Payload, int) {
	for {
		p.checkKilled()
		best, bestWant := -1, -1
		for i, msg := range p.queue {
			wi := -1
			for j, w := range wants {
				if matches(msg, w.src, w.tag) {
					wi = j
					break
				}
			}
			if wi < 0 {
				continue
			}
			if best < 0 || msg.arrival < p.queue[best].arrival {
				best, bestWant = i, wi
			}
		}
		if best >= 0 {
			pay, src := p.claim(best)
			return bestWant, pay, src
		}
		p.checkBeforeBlock(AnySource, wants)
		p.wantsAny = wants
		p.park(stateBlocked)
		p.wantsAny = nil
		p.checkWakeErr()
	}
}

// checkWakeErr converts a scheduler-posted failure (deadline expiry,
// abandoned peer) into a netPanic after the process is resumed.
func (p *Proc) checkWakeErr() {
	if p.wakeErr == nil {
		return
	}
	err := p.wakeErr
	p.wakeErr = nil
	panic(netPanic{err})
}

// checkBeforeBlock fails fast instead of parking when the blocking
// receive can already be proven hopeless or overdue: the deadline has
// passed, or the reliable transport has abandoned every link the
// receive could complete from.  from is the single wanted source
// (AnySource when wants is used instead).
func (p *Proc) checkBeforeBlock(from int, wants []recvWant) {
	if p.deadlineAt > 0 && p.clock >= p.deadlineAt {
		p.world.emit(Event{Time: p.clock, Rank: p.worldRank, Kind: EvTimeout, Peer: -1})
		panic(netPanic{&NetError{Op: "wait", Rank: p.worldRank, Peer: -1, Err: ErrTimeout}})
	}
	if p.world.crash != nil {
		// A receive bound entirely to detected-dead ranks can never
		// complete; fail fast with ErrPeerDead.
		if wants == nil {
			if from != AnySource && p.world.deadDetected(from, p.clock) {
				panic(netPanic{&NetError{Op: "recv", Rank: p.worldRank, Peer: from, Err: ErrPeerDead}})
			}
		} else if peer, hopeless := p.world.hopelessWants(wants, AnySource, p.clock); hopeless {
			panic(netPanic{&NetError{Op: "recv", Rank: p.worldRank, Peer: peer, Err: ErrPeerDead}})
		}
	}
	if p.world.net == nil {
		return
	}
	if wants == nil {
		if from != AnySource && p.world.net.deadFrom(from, p.worldRank) {
			panic(netPanic{&NetError{Op: "recv", Rank: p.worldRank, Peer: from, Err: ErrPeerUnreachable}})
		}
		return
	}
	// A multi-receive is hopeless only if every wanted source is a
	// specific, abandoned peer.
	deadPeer := -1
	for _, w := range wants {
		if w.src == AnySource || !p.world.net.deadFrom(w.src, p.worldRank) {
			return
		}
		deadPeer = w.src
	}
	if deadPeer >= 0 {
		panic(netPanic{&NetError{Op: "recv", Rank: p.worldRank, Peer: deadPeer, Err: ErrPeerUnreachable}})
	}
}

// WithTimeout runs f under a virtual-time deadline d seconds from now.
// If a blocking operation inside f (Recv, Wait, Waitany, collectives)
// is still parked when the deadline passes, it aborts and WithTimeout
// returns a *NetError wrapping ErrTimeout; if the reliable transport
// declared a needed peer unreachable, the error wraps
// ErrPeerUnreachable.  d <= 0 sets no deadline but still converts
// transport failures into errors.  Nested calls are bounded by the
// tightest enclosing deadline.  After an error the aborted operation
// is not retried — the caller decides how to degrade.
func (p *Proc) WithTimeout(d float64, f func()) (err error) {
	prevAt, prevGen := p.deadlineAt, p.deadlineGen
	spanDepth := p.world.obs.Depth(p.worldRank)
	defer func() {
		p.deadlineAt, p.deadlineGen = prevAt, prevGen
		if r := recover(); r != nil {
			np, ok := r.(netPanic)
			if !ok {
				panic(r)
			}
			// The aborted operation cannot end the spans it opened;
			// close them at the abandonment clock so the timeline
			// stays well-nested.
			p.world.obs.Unwind(p.worldRank, spanDepth, p.clock)
			err = np.err
		}
	}()
	if d > 0 {
		at := p.clock + d
		if prevAt > 0 && prevAt < at {
			at = prevAt
		}
		tm := p.shard.tc.get()
		tm.at, tm.rank, tm.kind, tm.p = at, p.worldRank, tWake, p
		p.world.addTimer(tm)
		tm.gen = tm.seq // registration id: globally unique, never reused
		p.deadlineAt, p.deadlineGen = at, tm.seq
	}
	f()
	return nil
}

// ReliableTransport reports whether this run's network uses the
// reliable transport (Config.Reliable), which is what makes per-lane
// checksums meaningful to higher layers.
func (p *Proc) ReliableTransport() bool {
	return p.world.net != nil && p.world.net.reliable
}

// deliver applies receive-side costs: inbound link occupancy on the
// receiver's node, the receive overhead, and payload unpacking.  Its
// span starts on the pre-delivery clock, so any jump to the message's
// arrival time (the receiver's wait) is inside the span.
func (p *Proc) deliver(msg *message) {
	size := msg.pay.Len()
	sp := p.beginSpan("recv")
	sp.SetPeer(msg.src).SetBytes(size)
	m := p.world.machine
	arrival := msg.arrival
	if !msg.local {
		start := arrival - msg.xmit
		if p.node.inFreeAt > start {
			start = p.node.inFreeAt
		}
		arrival = start + msg.xmit
		p.node.inFreeAt = arrival
	}
	if arrival > p.clock {
		p.clock = arrival
	}
	if !msg.local {
		p.clock += m.RecvOverhead + float64(size)*m.PerByteCPU
	}
	p.world.emit(Event{Time: p.clock, Rank: p.worldRank, Kind: EvRecv, Peer: msg.src, Bytes: size})
	sp.End(p.clock)
}

// yield hands control back to the scheduler with the process still
// runnable, letting lower-clock processes run first.
func (p *Proc) yield() { p.park(stateRunnable) }

// park is the process's one scheduling point: it records the state it
// parks in and switches straight back to the next() call that resumed
// it, returning when the process is next resumed.  A process claimed
// while parked (crash fault, abandoned run) unwinds here, before the
// resumed operation inspects anything.
func (p *Proc) park(st procState) {
	p.state = st
	p.suspend(struct{}{})
	p.checkKilled()
}

func matches(m *message, src, tag int) bool {
	if src != AnySource && m.src != src {
		return false
	}
	if tag != AnyTag && m.tag != tag {
		return false
	}
	return true
}
