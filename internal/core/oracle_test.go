package core

import (
	"fmt"
	"math"

	"metachaos/internal/codec"
)

// The element-granular schedule builder, kept as the differential
// oracle for the run-granular one in schedule.go, runs.go and rle.go.
// Everything here is the code that ran before inquiry functions
// answered in runs: one Loc per element from the library, one encoder
// step per element, one append per element.  FuzzScheduleRunsVsElements
// (in the external test package, where it can reach the real
// libraries) drives both builders over the same inputs and requires
// identical schedules, traffic and clocks.

// Loc is the physical location of one element: the program rank of the
// owning process and the element offset into that process's local
// storage.
type Loc struct {
	Proc int32
	Off  int32
}

// PosLoc pairs a set-linearization position with a local element
// offset on the calling process.
type PosLoc struct {
	Pos int32
	Off int32
}

// ElemLibrary is the inquiry interface in its element-granular form.
type ElemLibrary interface {
	// DerefRange returns the locations of set positions [lo, hi), in
	// linearization order.
	DerefRange(ctx *Ctx, o DistObject, set *SetOfRegions, lo, hi int) []Loc
	// DerefAt returns the locations of the given set positions, which
	// must be sorted ascending.
	DerefAt(ctx *Ctx, o DistObject, set *SetOfRegions, positions []int32) []Loc
	// OwnedPositions returns every (set position, local element offset)
	// pair of the set whose element the calling process owns, sorted by
	// position.
	OwnedPositions(ctx *Ctx, o DistObject, set *SetOfRegions) []PosLoc
}

// ElemSpec is one side of a transfer for the reference builder: the
// Spec the run-granular builder takes, plus the element-granular
// library that answers for it.
type ElemSpec struct {
	*Spec
	Ref ElemLibrary
}

func (e *ElemSpec) spec() *Spec {
	if e == nil {
		return nil
	}
	return e.Spec
}

// RefComputeSchedule is ComputeSchedule with the element-granular
// builders.  refOf supplies the reference library for a side that the
// duplication method's descriptor exchange decoded from the peer
// program.
func RefComputeSchedule(c *Coupling, src, dst *ElemSpec, method Method, refOf func(*Spec) ElemLibrary) (*Schedule, error) {
	var mySrcMeta, myDstMeta []byte
	if src != nil && src.Ctx.Comm.Rank() == 0 {
		mySrcMeta = encodeMeta(new(codec.Writer), src.Spec)
	}
	if dst != nil && dst.Ctx.Comm.Rank() == 0 {
		myDstMeta = encodeMeta(new(codec.Writer), dst.Spec)
	}
	sr := codec.NewReader(c.Union.Bcast(c.SrcRanks[0], mySrcMeta))
	dr := codec.NewReader(c.Union.Bcast(c.DstRanks[0], myDstMeta))
	nSrc, eSrc := sr.Int64(), UnpackElem(sr.Int32())
	nDst, eDst := dr.Int64(), UnpackElem(dr.Int32())
	if nSrc != nDst || eSrc != eDst {
		return nil, fmt.Errorf("core: reference builder: sides disagree (%d %v, %d %v)", nSrc, eSrc, nDst, eDst)
	}
	sched := &Schedule{union: c.Union, elems: int(nSrc), elem: eSrc}
	if method == Cooperation {
		refBuildCooperation(c, src, dst, sched)
		return sched, nil
	}
	if src == nil || dst == nil {
		s, d, err := exchangeDescriptors(c, src.spec(), dst.spec())
		if err != nil {
			return nil, err
		}
		if src == nil {
			src = &ElemSpec{Spec: s, Ref: refOf(s)}
		} else {
			dst = &ElemSpec{Spec: d, Ref: refOf(d)}
		}
	}
	refBuildDuplication(c, src, dst, sched)
	return sched, nil
}

// LaneFactsErr recomputes, element by element, every fact a build
// records on s: the element count, count in runs of stride other than 1
// and offset extent of each lane and of both sides of the local list.
// It describes the first recorded fact that differs from its
// recomputation, or returns nil.
func LaneFactsErr(s *Schedule) error {
	of := func(runs []Run) runFacts {
		f := runFacts{lo: math.MaxInt32, hi: math.MinInt32}
		for _, r := range runs {
			for k := int32(0); k < r.Count; k++ {
				off := r.Start + k*r.Stride
				f.n++
				if r.Stride != 1 {
					f.strided++
				}
				f.lo, f.hi = min(f.lo, off), max(f.hi, off)
			}
		}
		return f
	}
	for _, side := range []struct {
		name  string
		lanes []PeerList
	}{{"send", s.Sends}, {"recv", s.Recvs}} {
		for _, pl := range side.lanes {
			if want := of(pl.Runs); pl.runFacts != want {
				return fmt.Errorf("%s lane to %d records %+v, its runs give %+v", side.name, pl.Peer, pl.runFacts, want)
			}
		}
	}
	var src, dst []Run
	for _, lr := range s.Local {
		src, dst = append(src, lr.src()), append(dst, lr.dst())
	}
	if fs, fd := of(src), of(dst); s.localSrc != fs || s.localDst != fd {
		return fmt.Errorf("local runs record %+v onto %+v, they give %+v onto %+v", s.localSrc, s.localDst, fs, fd)
	}
	return nil
}

func refBuildCooperation(c *Coupling, src, dst *ElemSpec, sched *Schedule) {
	n := sched.elems
	nS, nD := len(c.SrcRanks), len(c.DstRanks)

	// Phase 1: source processes dereference their chunk of positions.
	var srcLocs []Loc
	var srcLo, srcHi int
	if src != nil {
		srcLo, srcHi = chunk(n, nS, src.Ctx.Comm.Rank())
		srcLocs = src.Ref.DerefRange(src.Ctx, src.Obj, src.Set, srcLo, srcHi)
	}

	// Phase 2: route source locations to the destination processes
	// responsible for each position chunk.
	bufs := make([][]byte, c.Union.Size())
	if src != nil {
		procs := make([]int32, 0, len(srcLocs))
		offs := make([]int32, 0, len(srcLocs))
		for _, loc := range srcLocs {
			procs = append(procs, loc.Proc)
			offs = append(offs, loc.Off)
		}
		for j := 0; j < nD; j++ {
			dLo, dHi := chunk(n, nD, j)
			a, b := max(srcLo, dLo), min(srcHi, dHi)
			if a >= b {
				continue
			}
			var w codec.Writer
			w.PutInt64(int64(a))
			encodePairs(&w, procs[a-srcLo:b-srcLo], offs[a-srcLo:b-srcLo])
			bufs[c.DstRanks[j]] = w.Bytes()
		}
	}
	parts := c.Union.Alltoall(bufs, nil)

	// Phase 3: destination processes dereference their chunk and join
	// it with the received source locations; phase 4: accumulate the
	// schedule fragments each owning process needs.
	type fragAccum struct {
		sendPeer, sendOff []int32
		recvPeer, recvOff []int32
		locSrc, locDst    []int32
	}
	frag := make([]*fragAccum, c.Union.Size())
	fragOf := func(u int) *fragAccum {
		if frag[u] == nil {
			frag[u] = &fragAccum{}
		}
		return frag[u]
	}
	if dst != nil {
		dLo, dHi := chunk(n, nD, dst.Ctx.Comm.Rank())
		dstLocs := dst.Ref.DerefRange(dst.Ctx, dst.Obj, dst.Set, dLo, dHi)
		srcForChunk := make([]Loc, dHi-dLo)
		filled := 0
		for _, part := range parts {
			if len(part) == 0 {
				continue
			}
			r := codec.NewReader(part)
			for r.Remaining() > 0 {
				a := int(r.Int64())
				k := 0
				decodePairs(r, func(proc, off int32) {
					srcForChunk[a-dLo+k] = Loc{Proc: proc, Off: off}
					k++
				})
				filled += k
			}
		}
		if filled != dHi-dLo {
			panic(fmt.Sprintf("core: cooperation join received %d of %d source locations", filled, dHi-dLo))
		}
		dst.Ctx.P.ChargeSectionOps(2 * (dHi - dLo))
		for k := dLo; k < dHi; k++ {
			s := srcForChunk[k-dLo]
			d := dstLocs[k-dLo]
			sU := int32(c.SrcRanks[s.Proc])
			dU := int32(c.DstRanks[d.Proc])
			if sU == dU {
				f := fragOf(int(sU))
				f.locSrc = append(f.locSrc, s.Off)
				f.locDst = append(f.locDst, d.Off)
			} else {
				fs := fragOf(int(sU))
				fs.sendPeer = append(fs.sendPeer, dU)
				fs.sendOff = append(fs.sendOff, s.Off)
				fd := fragOf(int(dU))
				fd.recvPeer = append(fd.recvPeer, sU)
				fd.recvOff = append(fd.recvOff, d.Off)
			}
		}
	}

	// Phase 5: one all-to-all routes every fragment to its owner; each
	// process assembles its lists.
	fragBufs := make([][]byte, c.Union.Size())
	for u, f := range frag {
		if f != nil {
			var w codec.Writer
			encodePairs(&w, f.sendPeer, f.sendOff)
			encodePairs(&w, f.recvPeer, f.recvOff)
			encodePairs(&w, f.locSrc, f.locDst)
			fragBufs[u] = w.Bytes()
		}
	}
	mine := c.Union.Alltoall(fragBufs, nil)

	// One offset, one pair at a time: a list is a function of its
	// element sequence, so this must leave what production's run-wise
	// appends leave, and production's take records the lists' facts.
	var b buildScratch
	total := 0
	lane := func(l *lanes) func(peer, off int32) {
		return func(peer, off int32) {
			l.add(int(peer), Run{Start: off, Count: 1})
			total++
		}
	}
	for _, part := range mine {
		if len(part) == 0 {
			continue
		}
		r := codec.NewReader(part)
		decodePairs(r, lane(&b.sends))
		decodePairs(r, lane(&b.recvs))
		decodePairs(r, func(so, do int32) {
			b.local = appendLocalRun(b.local, so, do)
			total++
		})
	}
	c.Union.Proc().ChargeSectionOps(total)
	b.take(sched)
}

func refBuildDuplication(c *Coupling, src, dst *ElemSpec, sched *Schedule) {
	myUnion := c.Union.Rank()
	var b buildScratch

	// Pass one: build send lists from the elements I own on the source
	// side.
	if !src.Obj.LocalMem().IsNil() {
		owned := src.Ref.OwnedPositions(src.Ctx, src.Obj, src.Set)
		positions := make([]int32, len(owned))
		for i, pl := range owned {
			positions[i] = pl.Pos
		}
		dLocs := dst.Ref.DerefAt(dst.Ctx, dst.Obj, dst.Set, positions)
		for i, pl := range owned {
			dU := c.DstRanks[dLocs[i].Proc]
			if dU == myUnion {
				b.local = appendLocalRun(b.local, pl.Off, dLocs[i].Off)
				continue
			}
			b.sends.add(dU, Run{Start: pl.Off, Count: 1})
		}
	}

	// Pass two: build receive lists from the elements I own on the
	// destination side.
	if !dst.Obj.LocalMem().IsNil() {
		owned := dst.Ref.OwnedPositions(dst.Ctx, dst.Obj, dst.Set)
		positions := make([]int32, len(owned))
		for i, pl := range owned {
			positions[i] = pl.Pos
		}
		sLocs := src.Ref.DerefAt(src.Ctx, src.Obj, src.Set, positions)
		for i, pl := range owned {
			sU := c.SrcRanks[sLocs[i].Proc]
			if sU == myUnion {
				continue // already recorded as a local pair in pass one
			}
			b.recvs.add(sU, Run{Start: pl.Off, Count: 1})
		}
	}
	b.take(sched)
}

// encodePairs writes the parallel arrays (as, bs) with run
// compression: the greedy scan that defines the token stream.
func encodePairs(w *codec.Writer, as, bs []int32) {
	w.PutInt32(int32(len(as)))
	i := 0
	litStart := 0
	flushLits := func(end int) {
		if end > litStart {
			w.PutInt32(int32(end - litStart))
			for k := litStart; k < end; k++ {
				w.PutInt32(as[k])
				w.PutInt32(bs[k])
			}
		}
	}
	n := len(as)
	for i < n {
		// Measure the arithmetic run starting at i.
		j := i + 1
		if j < n {
			da, db := as[j]-as[i], bs[j]-bs[i]
			for j+1 < n && as[j+1]-as[j] == da && bs[j+1]-bs[j] == db {
				j++
			}
			if runLen := j - i + 1; runLen >= minRun {
				flushLits(i)
				w.PutInt32(int32(-runLen))
				w.PutInt32(as[i])
				w.PutInt32(da)
				w.PutInt32(bs[i])
				w.PutInt32(db)
				i = j + 1
				litStart = i
				continue
			}
		}
		i++
	}
	flushLits(n)
}

// decodePairs reads a stream written by encodePairs, calling f for
// every pair in order.
func decodePairs(r *codec.Reader, f func(a, b int32)) {
	total := int(r.Int32())
	for seen := 0; seen < total; {
		h := int(r.Int32())
		if h > 0 {
			for k := 0; k < h; k++ {
				f(r.Int32(), r.Int32())
			}
			seen += h
			continue
		}
		a0, da := r.Int32(), r.Int32()
		b0, db := r.Int32(), r.Int32()
		for k := int32(0); k < int32(-h); k++ {
			f(a0+k*da, b0+k*db)
		}
		seen -= h
	}
}
