package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"metachaos/internal/bufpool"
	"metachaos/internal/codec"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
)

// Method selects how a communication schedule is computed, following
// the paper's two implementations.
type Method int

const (
	// Cooperation has the source processes dereference the source
	// SetOfRegions, ship the results to the destination processes,
	// which dereference the destination side, complete the schedule for
	// both sides, and route each process its own portion.  It works for
	// any library, including those without compact descriptors.
	Cooperation Method = iota
	// Duplication has every process compute its own send and receive
	// lists independently from both data descriptors, dereferencing
	// each side twice (once per pass) but exchanging no schedule
	// fragments.  Between separate programs it requires both libraries
	// to serialize their descriptors and regions.
	Duplication
)

func (m Method) String() string {
	switch m {
	case Cooperation:
		return "cooperation"
	case Duplication:
		return "duplication"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Spec names one side of a data transfer: the library that distributes
// the object, the object itself, the SetOfRegions selecting elements,
// and the owning program's context.
type Spec struct {
	Lib Library
	Obj DistObject
	Set *SetOfRegions
	Ctx *Ctx
}

// PeerList is one aggregated message lane of a schedule: the peer's
// union-communicator rank and the local element offsets to pack (for a
// send) or unpack (for a receive), in linearization-position order and
// run-compressed (see runs.go).  Both endpoints hold offsets for the
// same position sequence, which is what makes the packed buffers line
// up.
type PeerList struct {
	Peer     int
	Runs     []Run
	runFacts // of Runs, recorded by lanes.take
}

// Len returns the number of elements in the lane.
func (pl *PeerList) Len() int { return pl.n }

// Each calls f for every offset of the lane in packing order.
func (pl *PeerList) Each(f func(off int32)) {
	for _, r := range pl.Runs {
		for k := int32(0); k < r.Count; k++ {
			f(r.At(k))
		}
	}
}

// Schedule is one process's portion of a communication schedule.  It is
// symmetric: the same schedule copies data source-to-destination with
// Move/MoveSend/MoveRecv or destination-to-source with the Reverse
// variants.
type Schedule struct {
	union *mpsim.Comm
	elems int
	elem  ElemType
	tag   string // elem's label on move spans (elemTag)

	Sends []PeerList
	Recvs []PeerList
	Local []LocalRun

	localSrc, localDst runFacts // of Local's two sides, by buildScratch.take

	moveSeq int

	// Executor scratch, cached across moves so a reused schedule packs,
	// ships and unpacks without allocating (see move.go).  A Schedule is
	// per-process state and moves are collective, so no locking.
	//
	// pool backs the zero-copy pack path: each move's staging segments
	// (strided runs, checksum trailers) come from it and return to it
	// when the payloads carrying them are released, so a schedule holds
	// no pooled storage between moves.  sent tracks the move's in-flight
	// payloads until the move settles them.
	pool *bufpool.Pool
	sent []*bufpool.Payload
	reqs []*mpsim.Request

	// copiedC is the resolved "move.bytes_copied" counter when a tracer
	// is attached, cached so moves never hit the registry map.
	copiedC *obs.Counter
}

// EachLocal calls f for every same-process (src, dst) element pair in
// schedule order.
func (s *Schedule) EachLocal(f func(src, dst int32)) {
	for _, lr := range s.Local {
		for k := int32(0); k < lr.Count; k++ {
			f(lr.Src+k*lr.SrcStride, lr.Dst+k*lr.DstStride)
		}
	}
}

// Elems returns the total number of elements the schedule transfers
// (across all processes).
func (s *Schedule) Elems() int { return s.elems }

// Elem returns the element type the schedule was built for.
func (s *Schedule) Elem() ElemType { return s.elem }

// LocalCount returns the number of elements this process copies
// locally.
func (s *Schedule) LocalCount() int { return s.localSrc.n }

// tagMoveBase is the tag space data-move messages use; kept below
// mpsim's user tag cap and away from library-internal tags.
const tagMoveBase = 0x40000

// ComputeSchedule builds the communication schedule for copying the
// elements of the source SetOfRegions onto the destination
// SetOfRegions through their virtual linearizations.  It is collective
// over every process of both programs in the coupling: processes of
// the source program pass src (and dst nil unless they are also in the
// destination program), and vice versa; in a single program every
// process passes both.
func ComputeSchedule(c *Coupling, src, dst *Spec, method Method) (*Schedule, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil coupling")
	}
	if src == nil && dst == nil {
		return nil, fmt.Errorf("core: process is in neither side of the transfer")
	}
	myUnion := c.Union.Rank()
	if src != nil && c.SrcRanks[src.Ctx.Comm.Rank()] != myUnion {
		return nil, fmt.Errorf("core: source spec rank mapping inconsistent with coupling")
	}
	if dst != nil && c.DstRanks[dst.Ctx.Comm.Rank()] != myUnion {
		return nil, fmt.Errorf("core: destination spec rank mapping inconsistent with coupling")
	}
	p := c.Union.Proc()
	sp := p.Span("sched.compute")
	sched, err := computeSchedule(c, src, dst, method, p)
	sp.End(p.Clock())
	return sched, err
}

// computeSchedule is the body of ComputeSchedule, split out so the
// wrapping span closes on every return path.
func computeSchedule(c *Coupling, src, dst *Spec, method Method, p *mpsim.Proc) (*Schedule, error) {
	// Agree on element count and element type across both programs.
	// The element type rides in the int32 slot that used to carry the
	// bare word count (packElem), so float64 metadata — and therefore
	// the coupling's virtual-time message traffic — is unchanged.
	s := c.scratch()
	msp := p.Span("sched.meta")
	var mySrcMeta, myDstMeta []byte
	if src != nil && src.Ctx.Comm.Rank() == 0 {
		mySrcMeta = encodeMeta(&s.meta[0], src)
	}
	if dst != nil && dst.Ctx.Comm.Rank() == 0 {
		myDstMeta = encodeMeta(&s.meta[1], dst)
	}
	srcMeta := c.Union.Bcast(c.SrcRanks[0], mySrcMeta)
	dstMeta := c.Union.Bcast(c.DstRanks[0], myDstMeta)
	sr, dr := codec.NewReader(srcMeta), codec.NewReader(dstMeta)
	nSrc, eSrc := sr.Int64(), UnpackElem(sr.Int32())
	nDst, eDst := dr.Int64(), UnpackElem(dr.Int32())
	msp.End(p.Clock())
	n, err := transferSize(nSrc, nDst)
	if err != nil {
		return nil, err
	}
	if eSrc != eDst {
		return nil, fmt.Errorf("core: source elements are %v, destination %v", eSrc, eDst)
	}

	sched := &Schedule{union: c.Union, elems: n, elem: eSrc}
	switch method {
	case Cooperation:
		buildCooperation(c, s, src, dst, sched)
		return sched, nil
	case Duplication:
		if err := buildDuplication(c, s, src, dst, sched); err != nil {
			return nil, err
		}
		return sched, nil
	}
	return nil, fmt.Errorf("core: unknown schedule method %v", method)
}

// sizeInt32 is the element count a side announces: its set size, or,
// when some process's local storage is beyond int32 offsets, minus that
// storage's element count.
func sizeInt32(sp *Spec) int64 {
	local := sp.Obj.LocalMem().Elems()
	if b, ok := sp.Lib.(LocalBounder); ok {
		local = b.MaxLocalElems(sp.Obj)
	}
	if local > math.MaxInt32 {
		return -int64(local)
	}
	return int64(sp.Set.Size())
}

// transferSize turns the two sides' announcements into the transfer's
// element count.  Set positions and local offsets are int32 in every
// inquiry answer, schedule and wire format, so an announcement past
// either limit is the same error on every process that hears it.
func transferSize(nSrc, nDst int64) (int, error) {
	for _, side := range []struct {
		name string
		size int64
	}{{"source", nSrc}, {"destination", nDst}} {
		switch {
		case side.size < 0:
			return 0, fmt.Errorf("core: %s object stores %d elements on one process; local offsets are int32", side.name, -side.size)
		case side.size > math.MaxInt32:
			return 0, fmt.Errorf("core: %s set has %d elements; set positions are int32", side.name, side.size)
		}
	}
	if nSrc != nDst {
		return 0, fmt.Errorf("core: source set has %d elements, destination %d", nSrc, nDst)
	}
	return int(nSrc), nil
}

// encodeMeta writes into w the announcement a program's root
// broadcasts in sched.meta.
func encodeMeta(w *codec.Writer, sp *Spec) []byte {
	w.Reset()
	w.PutInt64(sizeInt32(sp))
	w.PutInt32(PackElem(sp.Obj.Elem()))
	return w.Bytes()
}

// chunk splits n positions over parts workers: worker i handles
// [lo, hi).
func chunk(n, parts, i int) (lo, hi int) {
	return i * n / parts, (i + 1) * n / parts
}

// buildCooperation implements the paper's cooperation method; see
// Method for the outline.  Linearization positions are chunked over the
// source processes for the source dereference, rerouted into chunks
// over the destination processes, matched there, and the finished
// send/receive lists are routed to their owners with one all-to-all.
// Every step works on runs: a regular transfer is never expanded to
// per-element lists between dereference and execution, and the wire
// formats are run-length compressed (see rle.go), so it ships a
// handful of arithmetic runs rather than per-element records.
func buildCooperation(c *Coupling, s *buildScratch, src, dst *Spec, sched *Schedule) {
	n := sched.elems
	nS, nD := len(c.SrcRanks), len(c.DstRanks)
	p := c.Union.Proc()

	// Phase 1: source processes dereference their chunk of positions.
	sp := p.Span("sched.deref")
	var srcRuns []LocRun
	var srcLo, srcHi int
	if src != nil {
		srcLo, srcHi = chunk(n, nS, src.Ctx.Comm.Rank())
		srcRuns = src.Lib.DerefRange(src.Ctx, src.Obj, src.Set, srcLo, srcHi, s.first[:0])
		s.first = srcRuns
	}
	sp.End(p.Clock())

	// Phase 2: route source locations to the destination processes
	// responsible for each position chunk, slicing the runs by position.
	sp = p.Span("sched.route")
	bufs := s.bufs
	if src != nil {
		i := 0 // the first run that reaches into the current chunk
		for j := 0; j < nD; j++ {
			dLo, dHi := chunk(n, nD, j)
			a, b := max(srcLo, dLo), min(srcHi, dHi)
			if a >= b {
				continue
			}
			e := &s.route[j]
			e.reset()
			e.w.PutInt64(int64(a))
			e.begin()
			for i < len(srcRuns) && int(srcRuns[i].Pos) < b {
				r := &srcRuns[i]
				k0 := int32(max(a, int(r.Pos))) - r.Pos
				k1 := int32(min(b, int(r.End()))) - r.Pos
				e.putRun(LocalRun{Src: r.Proc, Dst: r.Off + k0*r.Stride, DstStride: r.Stride, Count: k1 - k0})
				if int(r.End()) > b {
					break
				}
				i++
			}
			if int(e.total) != b-a {
				panic(fmt.Sprintf("core: %s dereferenced %d of positions [%d,%d)", src.Lib.Name(), e.total, a, b))
			}
			bufs[c.DstRanks[j]] = e.finish()
		}
	}
	parts := c.Union.Alltoall(bufs, s.parts)
	sp.End(p.Clock())

	// Phase 3: destination processes dereference their chunk and join
	// it with the received source locations over position intervals;
	// phase 4: the joined stretches go straight into the fragment
	// streams of the processes that own their two ends.
	sp = p.Span("sched.join")
	if dst != nil {
		dLo, dHi := chunk(n, nD, dst.Ctx.Comm.Rank())
		dstRuns := runCursor{runs: dst.Lib.DerefRange(dst.Ctx, dst.Obj, dst.Set, dLo, dHi, s.second[:0])}
		s.second = dstRuns.runs
		// Source chunks ascend with source rank, so taking the parts in
		// that order reads the chunk's source locations in position order.
		pos := int32(dLo)
		for _, u := range c.SrcRanks {
			for b := parts[u]; len(b) > 0; {
				if a := int64(binary.LittleEndian.Uint64(b)); a != int64(pos) {
					panic(fmt.Sprintf("core: cooperation join received source locations from position %d, expected %d", a, pos))
				}
				b, pos = s.join(c, &dstRuns, b[8:], pos)
			}
		}
		if filled := int(pos) - dLo; filled != dHi-dLo {
			panic(fmt.Sprintf("core: cooperation join received %d of %d source locations", filled, dHi-dLo))
		}
		dstRuns.done()
		dst.Ctx.P.ChargeSectionOps(2 * (dHi - dLo))
	}

	sp.End(p.Clock())

	// Phase 5: one all-to-all routes every fragment to its owner; each
	// process assembles its lists.  Fragments arrive ordered by
	// producing chunk, and chunks are position-ordered, so the
	// per-peer offset lists come out in linearization order without
	// sorting.
	sp = p.Span("sched.assemble")
	clear(bufs)
	for u := range s.frag {
		if f := &s.frag[u]; f.live {
			bufs[u] = f.bytes()
		}
	}
	mine := c.Union.Alltoall(bufs, s.mine)

	total := 0
	for _, b := range mine {
		if len(b) == 0 {
			continue
		}
		var n int
		b, n = s.sends.addStream(b)
		total += n
		b, n = s.recvs.addStream(b)
		total += n
		s.local, _, n = appendLocalStream(s.local, b)
		total += n
	}
	p.ChargeSectionOps(total)
	s.take(sched)
	sp.End(p.Clock())
}

// buildScratch is the schedule builders' working storage, kept on the
// Coupling so a cold build allocates only what it returns, the
// Schedule and its lists, once the buffers have grown to the build's
// size.  Reuse is safe because Bcast and Alltoall copy every buffer
// they are handed before they return, Alltoall lands what it receives
// in the slots it is given, and the libraries append their answers to
// the buffers they are given (see Library).  Each build resets the
// scratch when it starts, so one that panicked part-way leaves nothing
// behind for the next.
type buildScratch struct {
	meta          [2]codec.Writer // both methods: the two sides' announcements
	route         []pairEncoder   // cooperation: source locations, per destination program rank
	frag          []fragAccum     // cooperation: schedule fragments, per union rank
	bufs          [][]byte        // cooperation: the parts handed to each Alltoall
	parts, mine   [][]byte        // cooperation: the slots the two Alltoalls land in
	first, second []LocRun        // both methods: the two inquiry answers a pass joins
	ranges        []PosRange      // duplication: the positions first covers
	sends, recvs  lanes           // both methods
	local         []LocalRun      // both methods
}

// scratch returns the coupling's build scratch, reset for a new build.
func (c *Coupling) scratch() *buildScratch {
	s := c.build
	if s == nil {
		n := c.Union.Size()
		s = &buildScratch{
			route: make([]pairEncoder, len(c.DstRanks)),
			frag:  make([]fragAccum, n),
			bufs:  make([][]byte, n),
			parts: make([][]byte, n),
			mine:  make([][]byte, n),
		}
		c.build = s
	}
	clear(s.bufs)
	for u := range s.frag {
		s.frag[u].live = false
	}
	s.sends.reset()
	s.recvs.reset()
	s.local = s.local[:0]
	return s
}

// take copies the built lists into sched, exact-size, with their facts.
func (s *buildScratch) take(sched *Schedule) {
	sched.Sends, sched.Recvs = s.sends.take(), s.recvs.take()
	if len(s.local) > 0 {
		sched.Local = append(make([]LocalRun, 0, len(s.local)), s.local...)
	}
	src, dst := noRuns, noRuns
	for _, lr := range s.local {
		src.add(lr.src())
		dst.add(lr.dst())
	}
	sched.localSrc, sched.localDst = src, dst
}

// join reads the stream at the front of b — the (program rank, offset)
// source locations of the positions from pos on — matches it with the
// destination side's answer under d, and feeds every joined stretch
// into the fragment streams of the processes owning its two ends.  It
// returns the bytes after the stream and the position after its last
// pair.  A literal pair is cut against d inline and put as one pair; a
// run token whose rank moves is as many literals.
func (s *buildScratch) join(c *Coupling, d *runCursor, b []byte, pos int32) ([]byte, int32) {
	st := openStream(b)
	for st.left > 0 {
		t, lits := st.next()
		switch {
		case lits != nil:
			for ; len(lits) > 0; lits = lits[8:] {
				s.joinOne(c, d, pos, le32(lits), le32(lits[4:]))
				pos++
			}
		case t.SrcStride == 0:
			var seg routeRun
			r := LocRun{Pos: pos, Proc: t.Src, Off: t.Dst, Stride: t.DstStride, Count: t.Count}
			for r.Count > 0 {
				d.cut(&r, &seg)
				sU, dU := int32(c.SrcRanks[seg.SrcRank]), int32(c.DstRanks[seg.DstRank])
				if sU == dU {
					s.fragOf(sU).loc.putRun(seg.offs())
				} else {
					s.fragOf(sU).send.putRun(LocalRun{Src: dU, Dst: seg.SrcOff, DstStride: seg.SrcStride, Count: seg.Count})
					s.fragOf(dU).recv.putRun(LocalRun{Src: sU, Dst: seg.DstOff, DstStride: seg.DstStride, Count: seg.Count})
				}
			}
			pos = r.Pos
		default:
			for k := int32(0); k < t.Count; k++ {
				s.joinOne(c, d, pos, t.Src+k*t.SrcStride, t.Dst+k*t.DstStride)
				pos++
			}
		}
	}
	return st.b, pos
}

// joinOne is join for the one position pos, whose source location is
// offset off on source program rank proc.
func (s *buildScratch) joinOne(c *Coupling, d *runCursor, pos, proc, off int32) {
	dProc, dOff := d.cutOne(pos)
	sU, dU := int32(c.SrcRanks[proc]), int32(c.DstRanks[dProc])
	if sU == dU {
		s.fragOf(sU).loc.put(off, dOff)
		return
	}
	s.fragOf(sU).send.put(dU, off)
	s.fragOf(dU).recv.put(sU, dOff)
}

// fragOf returns union rank u's fragment, begun in this build.
func (s *buildScratch) fragOf(u int32) *fragAccum {
	f := &s.frag[u]
	if !f.live {
		f.begin()
	}
	return f
}

// fragAccum is the schedule fragment one joining process holds for one
// owning process, as three streams: (peer, offset) for the owner's
// sends and for its receives, (source offset, destination offset) for
// its local copies.
// live marks a fragment begun in the current build; one never begun
// ships as an empty part.
type fragAccum struct {
	send, recv, loc pairEncoder
	cat             []byte // the three streams, one after another
	live            bool
}

// begin starts the three streams.
func (f *fragAccum) begin() {
	for _, e := range []*pairEncoder{&f.send, &f.recv, &f.loc} {
		e.reset()
		e.begin()
	}
	f.live = true
}

// bytes ends the three streams and returns them one after another.
func (f *fragAccum) bytes() []byte {
	f.cat = append(f.cat[:0], f.send.finish()...)
	f.cat = append(f.cat, f.recv.finish()...)
	f.cat = append(f.cat, f.loc.finish()...)
	return f.cat
}

// lanes assembles per-peer lists, kept in the order their peers first
// appear.  The zero value is ready to use; reset and take let one lanes
// serve build after build, keeping its run lists' capacity.
type lanes struct {
	list []PeerList
	at   []int32 // at[peer]-1 indexes list; 0 means no lane yet
}

// add appends the offsets of r to the lane of union rank peer.
func (l *lanes) add(peer int, r Run) {
	pl := l.lane(peer)
	pl.Runs = appendOffsetRuns(pl.Runs, r)
}

// lane returns the lane of union rank peer, opening it if it is new.
func (l *lanes) lane(peer int) *PeerList {
	if peer >= len(l.at) {
		l.at = append(l.at, make([]int32, peer+1-len(l.at))...)
	}
	if l.at[peer] == 0 {
		if n := len(l.list); n < cap(l.list) {
			l.list = l.list[:n+1]
			l.list[n] = PeerList{Peer: peer, Runs: l.list[n].Runs[:0]}
		} else {
			l.list = append(l.list, PeerList{Peer: peer})
		}
		l.at[peer] = int32(len(l.list))
	}
	return &l.list[l.at[peer]-1]
}

// reset empties every lane.
func (l *lanes) reset() {
	clear(l.at)
	l.list = l.list[:0]
}

// take copies the lanes out at their exact size, one backing run array
// with each lane a capped slice of it, and records each lane's facts.
func (l *lanes) take() []PeerList {
	if len(l.list) == 0 {
		return nil
	}
	n := 0
	for _, pl := range l.list {
		n += len(pl.Runs)
	}
	runs := make([]Run, 0, n)
	out := make([]PeerList, len(l.list))
	for i, pl := range l.list {
		lo := len(runs)
		runs = append(runs, pl.Runs...)
		f := noRuns
		for _, r := range pl.Runs {
			f.add(r)
		}
		out[i] = PeerList{Peer: pl.Peer, Runs: runs[lo:len(runs):len(runs)], runFacts: f}
	}
	return out
}

// buildDuplication implements the paper's duplication method: every
// process derives its own send lists (pass one) and receive lists
// (pass two) directly from the two data descriptors, calling each
// library's dereference machinery twice but exchanging no schedule
// fragments.  Between separate programs the descriptors and regions
// are exchanged first, which requires both libraries to implement
// DescriptorCodec and RegionCodec.
func buildDuplication(c *Coupling, s *buildScratch, src, dst *Spec, sched *Schedule) error {
	p := c.Union.Proc()
	singleProgram := src != nil && dst != nil
	if !singleProgram {
		sp := p.Span("sched.exchange")
		var err error
		src, dst, err = exchangeDescriptors(c, src, dst)
		sp.End(p.Clock())
		if err != nil {
			return err
		}
	}
	myUnion := c.Union.Rank()
	var seg routeRun

	// Pass one: build send lists from the elements I own on the source
	// side, joined run to run with where the destination keeps them.
	sp := p.Span("sched.deref")
	if !src.Obj.LocalMem().IsNil() {
		owned := src.Lib.OwnedPositions(src.Ctx, src.Obj, src.Set, s.first[:0])
		s.first, s.ranges = owned, appendRanges(s.ranges[:0], owned)
		dLocs := runCursor{runs: dst.Lib.DerefAt(dst.Ctx, dst.Obj, dst.Set, s.ranges, s.second[:0])}
		s.second = dLocs.runs
		for _, r := range owned {
			for r.Count > 0 {
				dLocs.cut(&r, &seg)
				if dU := c.DstRanks[seg.DstRank]; dU == myUnion {
					s.local = appendLocalRuns(s.local, seg.offs())
				} else {
					s.sends.add(dU, seg.offs().src())
				}
			}
		}
		dLocs.done()
	}
	sp.End(p.Clock())

	// Pass two: build receive lists from the elements I own on the
	// destination side.
	sp = p.Span("sched.deref")
	if !dst.Obj.LocalMem().IsNil() {
		owned := runCursor{runs: dst.Lib.OwnedPositions(dst.Ctx, dst.Obj, dst.Set, s.first[:0])}
		s.first, s.ranges = owned.runs, appendRanges(s.ranges[:0], owned.runs)
		s.second = src.Lib.DerefAt(src.Ctx, src.Obj, src.Set, s.ranges, s.second[:0])
		for _, r := range s.second {
			for r.Count > 0 {
				owned.cut(&r, &seg)
				// Elements I also own on the source side are already
				// recorded as local pairs in pass one.
				if sU := c.SrcRanks[seg.SrcRank]; sU != myUnion {
					s.recvs.add(sU, seg.offs().dst())
				}
			}
		}
		owned.done()
	}
	sp.End(p.Clock())
	s.take(sched)
	return nil
}

// exchangeDescriptors implements the descriptor/region exchange that
// lets two separate programs run the duplication method.  Each
// program's root broadcasts its library name, encoded descriptor and
// encoded regions over the union; the peer program decodes a
// descriptor-only remote view.  A process is in exactly one of the two
// programs, so it encodes one side and decodes the other.
func exchangeDescriptors(c *Coupling, src, dst *Spec) (*Spec, *Spec, error) {
	var mySrcBlob, myDstBlob []byte
	if src != nil {
		mySrcBlob = c.peer.encode(src)
	}
	if dst != nil {
		myDstBlob = c.peer.encode(dst)
	}
	srcBlob := c.Union.Bcast(c.SrcRanks[0], mySrcBlob)
	dstBlob := c.Union.Bcast(c.DstRanks[0], myDstBlob)
	if err := checkBlob(srcBlob); err != nil {
		return nil, nil, err
	}
	if err := checkBlob(dstBlob); err != nil {
		return nil, nil, err
	}
	var err error
	if src == nil {
		src, err = c.peer.decode(srcBlob, dst.Ctx)
	} else {
		dst, err = c.peer.decode(dstBlob, src.Ctx)
	}
	if err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}

// peerSide is what a process of a two-program coupling keeps of the
// descriptor exchange between duplication builds: the writer its own
// side's blob is encoded in, and the other side's last blob with the
// Spec decoded from it.  A rebuild against an unchanged peer finds the
// same bytes and skips the decode; the blob is still broadcast, so the
// exchange's messages and virtual time are the same either way.
type peerSide struct {
	w    codec.Writer
	blob []byte
	spec *Spec
}

// encode returns sp's blob on its program's root and nil elsewhere.
// Collective over sp's program: every process helps assemble a
// (possibly distributed) descriptor.
func (ps *peerSide) encode(sp *Spec) []byte {
	codecLib, okDesc := sp.Lib.(DescriptorCodec)
	rcodec, okRegion := sp.Lib.(RegionCodec)
	var desc []byte
	if okDesc && okRegion {
		desc, _ = codecLib.EncodeDescriptor(sp.Ctx, sp.Obj)
	}
	switch {
	case sp.Ctx.Comm.Rank() != 0:
		return nil
	case !okDesc:
		return encodeError(fmt.Errorf("core: library %q does not support descriptor exchange; use the cooperation method", sp.Lib.Name()))
	case !okRegion:
		return encodeError(fmt.Errorf("core: library %q does not support region exchange; use the cooperation method", sp.Lib.Name()))
	}
	w := &ps.w
	w.Reset()
	w.PutInt32(0) // status: ok
	w.PutString(sp.Lib.Name())
	w.PutBytes(desc)
	w.PutInt32(int32(sp.Set.Len()))
	for i := 0; i < sp.Set.Len(); i++ {
		w.PutBytes(rcodec.EncodeRegion(sp.Set.Region(i)))
	}
	return w.Bytes()
}

// decode returns the Spec blob describes, the one kept from the last
// decode when the bytes, and the program the view is built for, are
// the same.  mine is the calling process's own side's context.
func (ps *peerSide) decode(blob []byte, mine *Ctx) (*Spec, error) {
	if sp := ps.spec; sp != nil && sp.Ctx.P == mine.P && sp.Ctx.Comm == mine.Comm && bytes.Equal(ps.blob, blob) {
		return sp, nil
	}
	r := codec.NewReader(blob)
	r.Int32() // status, checked
	name := r.String()
	lib, err := LookupLibrary(name)
	if err != nil {
		return nil, err
	}
	dcodec, ok := lib.(DescriptorCodec)
	if !ok {
		return nil, fmt.Errorf("core: library %q cannot decode descriptors", name)
	}
	rcodec := lib.(RegionCodec)
	view, err := dcodec.DecodeDescriptor(r.Bytes())
	if err != nil {
		return nil, err
	}
	set := NewSetOfRegions()
	nr := int(r.Int32())
	for i := 0; i < nr; i++ {
		reg, err := rcodec.DecodeRegion(r.Bytes())
		if err != nil {
			return nil, err
		}
		set.Add(reg)
	}
	ps.blob, ps.spec = blob, &Spec{Lib: lib, Obj: view, Set: set, Ctx: NewCtx(mine.P, mine.Comm)}
	return ps.spec, nil
}

// Descriptor blobs start with a status word so an encode failure on one
// program surfaces as an error on both rather than a protocol hang.
func encodeError(err error) []byte {
	var w codec.Writer
	w.PutInt32(1)
	w.PutString(err.Error())
	return w.Bytes()
}

func checkBlob(blob []byte) error {
	r := codec.NewReader(blob)
	if r.Int32() == 1 {
		return fmt.Errorf("core: descriptor exchange failed: %s", r.String())
	}
	return nil
}

// RegionCodec is the optional extension that serializes a library's
// regions, required (together with DescriptorCodec) for the
// duplication method between separate programs.
type RegionCodec interface {
	EncodeRegion(r Region) []byte
	DecodeRegion(data []byte) (Region, error)
}
