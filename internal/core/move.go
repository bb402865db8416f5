package core

import (
	"errors"
	"fmt"
	"slices"
	"unsafe"

	"metachaos/internal/bufpool"
	"metachaos/internal/codec"
	"metachaos/internal/mpsim"
)

// Data movement: executing a communication schedule.  Meta-Chaos packs
// each peer's elements into one contiguous buffer, sends exactly one
// message per (source process, destination process) pair — the same
// message set a hand-crafted exchange would use — and copies
// same-process elements directly between the two objects' storage
// without staging.
//
// The executor is run-compressed and overlapped: offsets are stored as
// arithmetic runs (runs.go), so a stride-1 run packs or unpacks as one
// bulk copy instead of per-element scalar copies; every receive is
// posted before the first send so messages flow straight into pending
// requests; local copies proceed while messages are in flight; and
// incoming lanes are unpacked in arrival order (mpsim.Waitany) rather
// than fixed peer order.  A lane's scalar kind is resolved once, into a
// kernel generic over the typed storage slice (packRuns, unpackRuns)
// that reaches the staging segment and each arrived segment through one
// []T view, and consecutive staged runs travel as one view of the
// staging segment, so the receiver crosses a segment boundary per
// staged stretch rather than per run.  What does not depend on the data
// — a lane's element count, staging size and offset extent — is
// recorded when the schedule is built, so the wrong-object guard runs
// once per lane per move, not once per run.  Pack and unpack buffers
// are cached on the Schedule, so a reused schedule moves data without
// allocating.

// MovePhases breaks one move's virtual-time cost on this process into
// contiguous phases.  The executor stamps the virtual clock at every
// phase boundary, so the five fields telescope: their sum is exactly
// the clock advance from the move's first instruction to its last.
// The accounting is always on — it costs a handful of clock reads per
// lane and allocates nothing — whereas spans (the same boundaries,
// exported to timelines) are recorded only when a tracer is attached.
type MovePhases struct {
	// Pack is time spent building wire buffers for the send lanes,
	// including checksum trailers on a reliable transport.
	Pack float64
	// Ship is time spent handing packed buffers to the transport (send
	// overhead; the wire time itself overlaps with everything below).
	Ship float64
	// Local is time spent on same-process storage-to-storage copies.
	Local float64
	// Wait is time spent posting receives and blocked waiting for
	// message arrivals (and residual bookkeeping).
	Wait float64
	// Unpack is time spent decoding arrived lanes into destination
	// storage, including checksum verification.
	Unpack float64
}

// MoveResult reports what a move accomplished and what it cost this
// process; the fast path allocates nothing for it.  FailedPeers is
// non-empty only when the reliable transport declared peers
// unreachable, the failure detector declared them dead, or a deadline
// the caller opened with WithTimeout expired: the move completed every
// other lane, and the caller decides how to degrade (the elements of
// failed lanes keep their previous values).
type MoveResult struct {
	// Elems is the number of elements this process unpacked or copied
	// locally.
	Elems int
	// BytesCopied counts the bytes this process memcpy'd to accomplish
	// the move: staged strided runs, checksum trailers, payloads
	// materialized because a reader still referenced them at move end,
	// and same-process storage-to-storage copies.  Stride-1 bytes sent
	// as views of source storage and unpacked straight into destination
	// storage are NOT counted — the number a fully copy-based executor
	// would report here is roughly twice the wire bytes, which is what
	// the zero-copy data plane's benchmarks measure against.
	BytesCopied int
	// Phases is this process's per-phase virtual-time breakdown.
	Phases MovePhases
	// FailedPeers lists union ranks whose lanes did not complete.
	FailedPeers []int
}

// OK reports whether every lane completed.
func (r *MoveResult) OK() bool { return len(r.FailedPeers) == 0 }

// Move copies data from srcObj's SetOfRegions to dstObj's inside a
// single program; every process of the program calls it with both
// objects.
func (s *Schedule) Move(srcObj, dstObj DistObject) MoveResult {
	return s.moveOp(srcObj, dstObj, false, opCopy)
}

// MoveReverse copies data destination-to-source using the same
// schedule, exploiting its symmetry; arguments keep their original
// roles from ComputeSchedule.
func (s *Schedule) MoveReverse(srcObj, dstObj DistObject) MoveResult {
	return s.moveOp(srcObj, dstObj, true, opCopy)
}

// MoveSend is the source program's half of an inter-program copy.
func (s *Schedule) MoveSend(obj DistObject) MoveResult {
	return s.moveOp(obj, nil, false, opCopy)
}

// MoveRecv is the destination program's half of an inter-program copy.
func (s *Schedule) MoveRecv(obj DistObject) MoveResult {
	return s.moveOp(nil, obj, false, opCopy)
}

// MoveReverseSend is called by the destination program to send data
// back to the source program through the same schedule.
func (s *Schedule) MoveReverseSend(obj DistObject) MoveResult {
	return s.moveOp(nil, obj, true, opCopy)
}

// MoveReverseRecv is called by the source program to receive data sent
// with MoveReverseSend.
func (s *Schedule) MoveReverseRecv(obj DistObject) MoveResult {
	return s.moveOp(obj, nil, true, opCopy)
}

// MoveAdd accumulates instead of copying: every destination element
// gets the matching source element added to it (word-wise).  An
// extension beyond the paper's copy semantics, for couplings that sum
// fluxes across an interface.  Single-program form.
func (s *Schedule) MoveAdd(srcObj, dstObj DistObject) MoveResult {
	return s.moveOp(srcObj, dstObj, false, opAdd)
}

// MoveAddSend is the source program's half of an inter-program
// accumulate.
func (s *Schedule) MoveAddSend(obj DistObject) MoveResult {
	return s.moveOp(obj, nil, false, opAdd)
}

// MoveAddRecv is the destination program's half of an inter-program
// accumulate.
func (s *Schedule) MoveAddRecv(obj DistObject) MoveResult {
	return s.moveOp(nil, obj, false, opAdd)
}

// moveOp codes for the unpack combiner.
const (
	opCopy = iota
	opAdd
)

// tagMoveSpan is how many consecutive moves get distinct tags before
// the tag space wraps: the whole user tag range above tagMoveBase
// (mpsim caps user tags at 1<<21).  Per-(source, tag) FIFO ordering
// makes a wrap harmless only if fewer than tagMoveSpan moves are ever
// simultaneously in flight between a process pair, which holds by
// construction since each moveOp drains its receives before returning.
const tagMoveSpan = (1 << 21) - tagMoveBase

// moveTag maps a move sequence number into the data-move tag space.
func moveTag(seq int) int { return tagMoveBase + seq%tagMoveSpan }

// checkObj is the wrong-object guard, run before a move posts a request
// or moves a byte: obj must hold the schedule's full element type (not
// just its width) and storage covering each lane's recorded extent.
// The per-run kernels carry no guard of their own (Go's bounds checks
// aside).  It returns obj's storage.
func (s *Schedule) checkObj(obj DistObject, lanes []PeerList) Mem {
	if obj.Elem() != s.elem {
		panic(fmt.Sprintf("core: schedule built for %v elements used with %v object", s.elem, obj.Elem()))
	}
	m := obj.LocalMem()
	for i := range lanes {
		lanes[i].check(m.Units(), s.elem.Words)
	}
	return m
}

// elemTag is the move span's element label, formatted on the first
// move: String allocates for a multi-word type.
func (s *Schedule) elemTag() string {
	if s.tag == "" {
		s.tag = s.elem.String()
	}
	return s.tag
}

func (s *Schedule) moveOp(srcObj, dstObj DistObject, reverse bool, op int) MoveResult {
	w := s.elem.Words
	sends, recvs := s.Sends, s.Recvs
	packObj, unpackObj := srcObj, dstObj
	if reverse {
		sends, recvs = s.Recvs, s.Sends
		packObj, unpackObj = dstObj, srcObj
	}
	var packMem, unpackMem Mem
	if unpackObj != nil {
		unpackMem = s.checkObj(unpackObj, recvs)
	}
	if packObj != nil {
		packMem = s.checkObj(packObj, sends)
	}
	srcMem, dstMem := packMem, unpackMem
	if reverse {
		srcMem, dstMem = unpackMem, packMem
	}
	if srcObj != nil && dstObj != nil {
		s.localSrc.check(srcMem.Units(), w)
		s.localDst.check(dstMem.Units(), w)
	}

	seq := s.moveSeq
	s.moveSeq++
	tag := moveTag(seq)
	p := s.union.Proc()
	var res MoveResult

	// Phase accounting: tMark walks the virtual clock from boundary to
	// boundary, so every instant of the move lands in exactly one
	// MovePhases bucket and the buckets telescope to the move's total.
	// The matching spans carry the same boundaries onto the timeline
	// when a tracer is attached (p.Span is a no-op otherwise).
	tMark := p.Clock()
	mv := p.Span("move")
	mv.SetElem(s.elemTag())

	// End-to-end robustness on a reliable transport: each lane's
	// payload carries a trailing checksum verified at unpack time, the
	// application-level guard behind the transport's own per-packet
	// checksums.
	rel := p.ReliableTransport()
	// Crash-fault runs route every blocking lane through the guarded
	// (abortable) paths so a peer dying mid-move surfaces as
	// FailedPeers instead of unwinding the process.  crashAware is
	// false on every fault-free run, keeping the hot path — including
	// its zero-allocation property — byte-identical.
	crashAware := p.CrashFaults()
	guarded := rel || crashAware

	// Post every receive before the first send so arriving messages
	// match pending requests immediately.  The request and in-flight
	// lists are sized from the lane counts on a schedule's first move.
	reqs := s.reqs[:0]
	if unpackObj != nil {
		if cap(reqs) < len(recvs) {
			reqs = make([]*mpsim.Request, 0, len(recvs))
		}
		for i := range recvs {
			reqs = append(reqs, s.union.Irecv(recvs[i].Peer, tag))
		}
	}
	s.reqs = reqs
	now := p.Clock()
	res.Phases.Wait += now - tMark
	tMark = now

	if packObj != nil {
		if cap(s.sent) < len(sends) {
			s.sent = make([]*bufpool.Payload, 0, len(sends))
		}
		if s.pool == nil {
			s.pool = p.BufPool()
		}
		// Stride-1 runs go on the wire as views of the source storage —
		// no pack copy — when the host's native byte order is the wire
		// order and the unpack destination does not alias the pack
		// source (in-place unpacking would mutate viewed bytes).
		canView := codec.HostLE()
		if canView && unpackObj != nil && memOverlaps(packMem, unpackMem) {
			canView = false
		}
		es := s.elem.Kind.Size()
		for i := range sends {
			pl := &sends[i]
			sp := p.Span("move.pack")
			// Staging need: every strided run (every run when views are
			// disabled) plus the checksum trailer, sized exactly so the
			// pooled segment never reallocates under the views into it.
			// The segment rides on the payload and goes back to the pool
			// with its last reference.
			staged := pl.n
			if canView {
				staged = pl.strided
			}
			staged *= w * es
			if rel {
				staged += 8
			}
			pay := s.pool.GetPayload()
			var stage []byte
			if staged > 0 {
				seg := s.pool.GetSegment(staged)
				pay.AttachSegment(seg)
				stage = seg.Bytes()[:0]
			}
			stage = packLane(pay, stage, &packMem, pl.Runs, w, canView)
			p.ChargeMemOps(pl.Len())
			if rel {
				h := fnvOver(pay.Segments(), pay.Len())
				mark := len(stage)
				stage = append(stage,
					byte(h), byte(h>>8), byte(h>>16), byte(h>>24),
					byte(h>>32), byte(h>>40), byte(h>>48), byte(h>>56))
				pay.AddView(stage[mark:])
				p.ChargeCopy(pay.Len())
			}
			res.BytesCopied += len(stage)
			now = p.Clock()
			sp.SetPeer(pl.Peer).SetBytes(pay.Len()).End(now)
			res.Phases.Pack += now - tMark
			tMark = now
			sp = p.Span("move.ship")
			// The payload travels by reference: the transport and the
			// receive queue take their own references, and the move
			// settles ours (materializing if a reader is still attached)
			// before returning.
			shipBytes := pay.Len()
			if crashAware {
				if err := p.WithTimeout(0, func() { s.union.SendPayload(pl.Peer, tag, pay) }); err != nil {
					res.FailedPeers = append(res.FailedPeers, pl.Peer)
				}
			} else {
				s.union.SendPayload(pl.Peer, tag, pay)
			}
			s.sent = append(s.sent, pay)
			now = p.Clock()
			sp.SetPeer(pl.Peer).SetBytes(shipBytes).End(now)
			res.Phases.Ship += now - tMark
			tMark = now
		}
	}

	// Same-process elements: direct storage-to-storage copy, no message
	// and no staging buffer, overlapped with the messages in flight.
	if len(s.Local) > 0 && srcObj != nil && dstObj != nil {
		sp := p.Span("move.local")
		n := s.moveLocal(&srcMem, &dstMem, reverse, op)
		res.Elems += n
		res.BytesCopied += s.elem.Bytes() * n
		now = p.Clock()
		sp.SetBytes(s.elem.Bytes() * n).End(now)
		res.Phases.Local += now - tMark
		tMark = now
	}

	if unpackObj != nil {
		for {
			spw := p.Span("move.wait")
			var i int
			if guarded {
				var werr error
				i, werr = mpsim.WaitanyTimeout(reqs, 0)
				if werr != nil {
					now = p.Clock()
					spw.End(now)
					res.Phases.Wait += now - tMark
					tMark = now
					if !s.cancelFailed(&res, reqs, recvs, werr) {
						break // deadline expired: pending lanes abandoned
					}
					continue // one peer failed; keep draining the others
				}
			} else {
				i = mpsim.Waitany(reqs)
			}
			now = p.Clock()
			spw.End(now)
			res.Phases.Wait += now - tMark
			tMark = now
			if i < 0 {
				break
			}
			pay, _ := reqs[i].TakePayload()
			pl := &recvs[i]
			spu := p.Span("move.unpack")
			n := pl.Len()
			want := s.elem.Bytes() * n
			// Verify the trailer and decode straight from the segments
			// into destination storage — the payload is never flattened.
			body := pay.Len()
			if rel {
				p.ChargeCopy(body)
				if body < 8 {
					panic(fmt.Sprintf("core: move message from peer %d too short for checksum trailer", pl.Peer))
				}
				body -= 8
				// A mismatch means corruption slipped past the transport: a
				// protocol failure worth halting on, not degrading silently.
				if fnvOver(pay.Segments(), body) != trailerOf(pay.Segments()) {
					panic(fmt.Sprintf("core: end-to-end checksum mismatch on move payload from peer %d (corruption not caught by transport)", pl.Peer))
				}
			}
			if body != want {
				panic(fmt.Sprintf("core: move message carries %d bytes, schedule expects %d", body, want))
			}
			unpackLane(&unpackMem, pay.Segments(), pl.Runs, w, op)
			pay.Release()
			res.Elems += n
			p.ChargeMemOps(n)
			if op == opAdd {
				p.ChargeFlops(w * n)
			}
			now = p.Clock()
			spu.SetPeer(pl.Peer).SetBytes(want).End(now)
			res.Phases.Unpack += now - tMark
			tMark = now
		}
	}

	// Settle this move's sent payloads: one still referenced beyond our
	// handle (in flight to a slow peer, queued at a cancelled receiver,
	// held for retransmission) is materialized so the application may
	// mutate the source storage the moment the move returns.  Completed
	// requests go back on the process's freelist.
	for _, pay := range s.sent {
		if !pay.Materialized() && pay.Refs() > 1 {
			res.BytesCopied += pay.Materialize()
		}
		pay.Release()
	}
	s.sent = s.sent[:0]
	for _, r := range reqs {
		r.Free()
	}
	s.reqs = reqs[:0]

	now = p.Clock()
	res.Phases.Wait += now - tMark
	mv.SetBytes(s.elem.Bytes() * res.Elems).End(now)
	if s.copiedC == nil {
		if tr := p.Obs(); tr != nil {
			s.copiedC = tr.MetricsRegistry().Counter("move.bytes_copied")
		}
	}
	if s.copiedC != nil {
		s.copiedC.Add(int64(res.BytesCopied))
	}
	return res
}

// cancelFailed converts a transport failure during the receive phase
// into graceful degradation.  It returns true when only a lost peer's
// lanes were cancelled — the reliable transport abandoned it
// (ErrPeerUnreachable) or the failure detector declared it dead
// (ErrPeerDead) — so the caller keeps draining the others, and false
// on any other failure, such as the expiry of a deadline the caller
// opened around the move, which abandons every pending lane.
func (s *Schedule) cancelFailed(res *MoveResult, reqs []*mpsim.Request, recvs []PeerList, werr error) bool {
	var ne *mpsim.NetError
	if errors.As(werr, &ne) &&
		(errors.Is(werr, mpsim.ErrPeerUnreachable) || errors.Is(werr, mpsim.ErrPeerDead)) &&
		ne.Peer >= 0 {
		for j := range reqs {
			if !reqs[j].Done() && s.union.WorldRank(recvs[j].Peer) == ne.Peer {
				reqs[j].Cancel()
				res.FailedPeers = append(res.FailedPeers, recvs[j].Peer)
			}
		}
		return true
	}
	for j := range reqs {
		if !reqs[j].Done() {
			reqs[j].Cancel()
			res.FailedPeers = append(res.FailedPeers, recvs[j].Peer)
		}
	}
	return false
}

// fnvOver is FNV-1a over the first n bytes of a segment list — how a
// lane's end-to-end checksum is computed without flattening the
// payload.
func fnvOver(segs [][]byte, n int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range segs {
		if n <= 0 {
			break
		}
		if len(s) > n {
			s = s[:n]
		}
		for _, b := range s {
			h ^= uint64(b)
			h *= prime64
		}
		n -= len(s)
	}
	return h
}

// trailerOf reads the little-endian 8-byte checksum trailer ending a
// segment list holding at least 8 bytes.
func trailerOf(segs [][]byte) uint64 {
	var tr [8]byte
	k := 8
	for i := len(segs) - 1; i >= 0 && k > 0; i-- {
		s := segs[i]
		take := k
		if take > len(s) {
			take = len(s)
		}
		copy(tr[k-take:], s[len(s)-take:])
		k -= take
	}
	return uint64(tr[0]) | uint64(tr[1])<<8 | uint64(tr[2])<<16 | uint64(tr[3])<<24 |
		uint64(tr[4])<<32 | uint64(tr[5])<<40 | uint64(tr[6])<<48 | uint64(tr[7])<<56
}

// packLane adds one send lane's bytes to pay, in run order and wire
// encoding.  The scalar kind is resolved here, once per lane; the loop
// over the runs is packRuns on the typed slice.  It returns stage
// extended by what it staged.
func packLane(pay *bufpool.Payload, stage []byte, m *Mem, runs []Run, w int, canView bool) []byte {
	switch m.et.Kind {
	case KindFloat64:
		return packRuns(pay, stage, m.f64, runs, w, canView)
	case KindFloat32:
		return packRuns(pay, stage, m.f32, runs, w, canView)
	case KindInt64:
		return packRuns(pay, stage, m.i64, runs, w, canView)
	case KindInt32:
		return packRuns(pay, stage, m.i32, runs, w, canView)
	case KindByte:
		return packRuns(pay, stage, m.by, runs, w, canView)
	}
	panic(fmt.Sprintf("core: packing unknown element kind %d", m.et.Kind))
}

// typedLanes says []T views of wire bytes are the scalars (HostLE).
// Otherwise the same kernels re-encode a staged stretch in place with
// codec.Put and decode an arrived segment with codec.Into.  A variable
// so the in-package test runs that portable branch on any host.
var typedLanes = codec.HostLE()

// packRuns is the typed pack kernel.  The lane's staging segment is
// viewed as []T once: a stride-1 run is one copy into it (or, when
// canView, a borrowed view of vs instead), a strided run of one-scalar
// elements gathers into it by index, a wider element is a copy each.
// Consecutive staged runs form one stretch of stage and reach pay as
// one view, added before the next borrowed view (and at the end) so the
// lane's bytes stay in run order.  stage must have capacity for
// everything staged: views into it are already out, so it may not move.
func packRuns[T codec.Scalar](pay *bufpool.Payload, stage []byte, vs []T, runs []Run, w int, canView bool) []byte {
	es := int(unsafe.Sizeof(*new(T)))
	ts := codec.Scalars[T](stage[:cap(stage)])
	at := len(stage) / es // the next unit to stage
	mark := at            // start of the staged stretch not yet in pay
	for _, run := range runs {
		o, n := int(run.Start)*w, int(run.Count)*w
		switch {
		case run.Stride == 1 && canView:
			pay.AddView(wireOf(ts[mark:at]))
			mark = at
			pay.AddView(codec.View(vs[o : o+n]))
		case run.Stride == 1:
			at += copy(ts[at:at+n], vs[o:o+n])
		case w == 1:
			for k, st := at, int(run.Stride); k < at+n; k++ {
				ts[k] = vs[o]
				o += st
			}
			at += n
		default:
			for k := int32(0); k < run.Count; k++ {
				o = int(run.At(k)) * w
				at += copy(ts[at:at+w], vs[o:o+w])
			}
		}
	}
	pay.AddView(wireOf(ts[mark:at]))
	return stage[:at*es]
}

// wireOf returns the bytes of a staged stretch, which the pack kernel
// wrote in host order, in wire encoding.
func wireOf[T codec.Scalar](ts []T) []byte {
	b := codec.View(ts)
	if !typedLanes {
		es := int(unsafe.Sizeof(ts[0]))
		for k, v := range ts {
			codec.Put(b[k*es:], v)
		}
	}
	return b
}

// unpackLane scatters an arrived lane's segments into local storage
// run by run, overwriting or accumulating; the kind is resolved once
// and unpackRuns does the work.
func unpackLane(m *Mem, segs [][]byte, runs []Run, w, op int) {
	switch m.et.Kind {
	case KindFloat64:
		unpackRuns(m.f64, segs, runs, w, op)
	case KindFloat32:
		unpackRuns(m.f32, segs, runs, w, op)
	case KindInt64:
		unpackRuns(m.i64, segs, runs, w, op)
	case KindInt32:
		unpackRuns(m.i32, segs, runs, w, op)
	case KindByte:
		unpackRuns(m.by, segs, runs, w, op)
	default:
		panic(fmt.Sprintf("core: unpacking unknown element kind %d", m.et.Kind))
	}
}

// unitCursor hands the unpack kernel a payload's segments front to
// back, each viewed as []T once; the payload is never flattened.
type unitCursor[T codec.Scalar] struct {
	segs [][]byte // segments not yet started
	buf  []T      // the current segment decoded, off the typed branch
}

// next returns the units of the next segment.  Segment boundaries
// always fall on unit boundaries (views are whole runs of units, staged
// stretches are whole units), so a segment with a partial unit is a
// protocol bug.
func (c *unitCursor[T]) next() []T {
	seg := c.segs[0]
	c.segs = c.segs[1:]
	es := int(unsafe.Sizeof(*new(T)))
	if len(seg)%es != 0 {
		panic("core: move payload segment not aligned to scalar units")
	}
	if typedLanes {
		return codec.Scalars[T](seg)
	}
	c.buf = slices.Grow(c.buf[:0], len(seg)/es)[:len(seg)/es]
	codec.Into(c.buf, seg)
	return c.buf
}

// unpackRuns is the typed unpack kernel: it reads each run straight
// from the arrived segments into vs (no staging buffer), a stride-1 run
// or a wide element as one copy or add per segment it spans, a strided
// run of one-scalar elements by index.  Bytes beyond the runs' (a
// checksum trailer) are never read.
func unpackRuns[T codec.Scalar](vs []T, segs [][]byte, runs []Run, w, op int) {
	c := unitCursor[T]{segs: segs}
	var cur []T // unread units of the current segment
	for _, run := range runs {
		o := int(run.Start) * w
		switch {
		case run.Stride == 1:
			cur = c.fill(vs[o:o+int(run.Count)*w], cur, op)
		case w == 1:
			for n := run.Count; n > 0; n-- {
				for len(cur) == 0 {
					cur = c.next()
				}
				if op == opAdd {
					vs[o] += cur[0]
				} else {
					vs[o] = cur[0]
				}
				cur = cur[1:]
				o += int(run.Stride)
			}
		default:
			for k := int32(0); k < run.Count; k++ {
				o = int(run.At(k)) * w
				cur = c.fill(vs[o:o+w], cur, op)
			}
		}
	}
}

// fill reads len(dst) units into dst, overwriting or accumulating, from
// cur, the current segment's unread units, and the segments after it,
// and returns what is left of the segment it ends in.
func (c *unitCursor[T]) fill(dst, cur []T, op int) []T {
	for len(dst) > 0 {
		for len(cur) == 0 {
			cur = c.next()
		}
		k := min(len(dst), len(cur))
		if op == opAdd {
			addTo(dst[:k], cur[:k])
		} else {
			copy(dst, cur[:k])
		}
		dst, cur = dst[k:], cur[k:]
	}
	return cur
}

// moveLocal executes the same-process runs, with bulk copies when both
// sides are contiguous, returning the element count.
func (s *Schedule) moveLocal(from, to *Mem, reverse bool, op int) int {
	p := s.union.Proc()
	w := s.elem.Words
	switch s.elem.Kind {
	case KindFloat64:
		localRuns(from.f64, to.f64, s.Local, w, reverse, op)
	case KindFloat32:
		localRuns(from.f32, to.f32, s.Local, w, reverse, op)
	case KindInt64:
		localRuns(from.i64, to.i64, s.Local, w, reverse, op)
	case KindInt32:
		localRuns(from.i32, to.i32, s.Local, w, reverse, op)
	case KindByte:
		localRuns(from.by, to.by, s.Local, w, reverse, op)
	default:
		panic(fmt.Sprintf("core: local copy of unknown element kind %d", s.elem.Kind))
	}
	elems := s.localSrc.n
	p.ChargeMemOps(2 * elems)
	p.ChargeCopy(s.elem.Bytes() * elems)
	if op == opAdd {
		p.ChargeFlops(w * elems)
	}
	return elems
}

// localRuns is the typed local-copy kernel behind moveLocal: a run
// contiguous on both sides is one bulk copy or add, any other run goes
// unit by unit, by index.
func localRuns[T codec.Scalar](from, to []T, local []LocalRun, w int, reverse bool, op int) {
	for _, lr := range local {
		// (src, s, ds) is the side read, (dst, d, dd) the side written.
		src, s, ds := from, int(lr.Src)*w, int(lr.SrcStride)*w
		dst, d, dd := to, int(lr.Dst)*w, int(lr.DstStride)*w
		if reverse {
			src, s, ds, dst, d, dd = dst, d, dd, src, s, ds
		}
		switch n := int(lr.Count); {
		case lr.SrcStride == 1 && lr.DstStride == 1 && op == opAdd:
			addTo(dst[d:d+n*w], src[s:s+n*w])
		case lr.SrcStride == 1 && lr.DstStride == 1:
			copy(dst[d:d+n*w], src[s:s+n*w])
		default:
			for ; n > 0; n, s, d = n-1, s+ds, d+dd {
				for j := range w {
					if op == opAdd {
						dst[d+j] += src[s+j]
					} else {
						dst[d+j] = src[s+j]
					}
				}
			}
		}
	}
}

// addTo adds src into dst element by element.
func addTo[T codec.Scalar](dst, src []T) {
	for k, v := range src {
		dst[k] += v
	}
}
