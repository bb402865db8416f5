package mbparti

import (
	"fmt"

	"metachaos/internal/codec"
	"metachaos/internal/gidx"
	"metachaos/internal/mpsim"
)

// Native regular-section copy schedules: the operation Multiblock
// Parti was designed for (Table 5's baseline).  The k-th point of the
// source section maps to the k-th point of the destination section,
// both in row-major order.  Because distribution descriptors are
// replicated, every process computes its own send and receive lists by
// intersecting the sections with its tile box — no communication.
//
// Unlike Meta-Chaos, Parti stages same-process elements through an
// intermediate buffer (the paper calls this out as Meta-Chaos's local
// copy advantage); the executor reproduces that extra copy.

const tagCopyBase = 0x20000

// CopySchedule is one process's plan for a section-to-section copy
// between two (possibly distinct) block arrays.
type CopySchedule struct {
	comm  *mpsim.Comm
	sends []peerOffsets
	recvs []peerOffsets
	// Same-process elements, staged through a buffer.
	selfSrc []int32
	selfDst []int32
	seq     int
}

// BuildCopySchedule builds the schedule copying src's section onto
// dst's section.  Both arrays must be distributed over comm's
// processes with Block distribution in every dimension, and the
// sections must hold the same number of points.
func BuildCopySchedule(p *mpsim.Proc, comm *mpsim.Comm, src *Array, srcSec gidx.Section, dst *Array, dstSec gidx.Section) (*CopySchedule, error) {
	if err := srcSec.Validate(src.dist.Shape()); err != nil {
		return nil, fmt.Errorf("mbparti: source section: %w", err)
	}
	if err := dstSec.Validate(dst.dist.Shape()); err != nil {
		return nil, fmt.Errorf("mbparti: destination section: %w", err)
	}
	if srcSec.Size() != dstSec.Size() {
		return nil, fmt.Errorf("mbparti: source section has %d points, destination %d",
			srcSec.Size(), dstSec.Size())
	}
	if src.dist.NProcs() != comm.Size() || dst.dist.NProcs() != comm.Size() {
		return nil, fmt.Errorf("mbparti: arrays distributed over %d/%d procs, communicator has %d",
			src.dist.NProcs(), dst.dist.NProcs(), comm.Size())
	}
	me := comm.Rank()
	cs := &CopySchedule{comm: comm}
	work := 0

	// Send side: the source points I own, with their destinations.
	srcLo, srcHi, ok := src.dist.LocalBox(me)
	if !ok {
		return nil, fmt.Errorf("mbparti: copy schedules require Block distributions")
	}
	dstLo, dstHi, ok := dst.dist.LocalBox(me)
	if !ok {
		return nil, fmt.Errorf("mbparti: copy schedules require Block distributions")
	}

	sendMap := map[int]*peerOffsets{}
	var sendOrder []int
	dstPt := make([]int, srcSec.Rank())
	local := make([]int, srcSec.Rank())
	if sub, ok := srcSec.IntersectBox(srcLo, srcHi); ok {
		sub.ForEach(func(_ int, coords []int) {
			pos := srcSec.IndexOf(coords)
			dstSec.PointAt(pos, dstPt)
			dr, _ := dst.dist.LocalCoords(dstPt, local)
			myOff := int32(src.OffsetOf(coords))
			if dr == me {
				cs.selfSrc = append(cs.selfSrc, myOff)
				cs.selfDst = append(cs.selfDst, int32(dst.offsetLocal(local)))
			} else {
				pl := sendMap[dr]
				if pl == nil {
					pl = &peerOffsets{peer: dr}
					sendMap[dr] = pl
					sendOrder = append(sendOrder, dr)
				}
				pl.offsets = append(pl.offsets, myOff)
			}
			work++
		})
	}
	for _, peer := range sendOrder {
		cs.sends = append(cs.sends, *sendMap[peer])
	}

	// Receive side: the destination points I own, with their sources.
	recvMap := map[int]*peerOffsets{}
	var recvOrder []int
	srcPt := make([]int, dstSec.Rank())
	if sub, ok := dstSec.IntersectBox(dstLo, dstHi); ok {
		sub.ForEach(func(_ int, coords []int) {
			pos := dstSec.IndexOf(coords)
			srcSec.PointAt(pos, srcPt)
			sr, _ := src.dist.LocalCoords(srcPt, local)
			if sr == me {
				return // staged locally by the send side
			}
			pl := recvMap[sr]
			if pl == nil {
				pl = &peerOffsets{peer: sr}
				recvMap[sr] = pl
				recvOrder = append(recvOrder, sr)
			}
			pl.offsets = append(pl.offsets, int32(dst.OffsetOf(coords)))
			work++
		})
	}
	for _, peer := range recvOrder {
		cs.recvs = append(cs.recvs, *recvMap[peer])
	}
	p.ChargeSectionOps(work)
	return cs, nil
}

// Execute performs the copy (the executor).  Collective over the
// schedule's communicator; reusable across iterations.
func (cs *CopySchedule) Execute(p *mpsim.Proc, src, dst *Array) {
	tag := tagCopyBase + cs.seq%1024
	cs.seq++
	for i := range cs.sends {
		pl := &cs.sends[i]
		buf := make([]float64, len(pl.offsets))
		for t, off := range pl.offsets {
			buf[t] = src.data[off]
		}
		p.ChargeMemOps(len(pl.offsets))
		cs.comm.Send(pl.peer, tag, codec.Float64sToBytes(buf))
	}
	// Same-process elements stage through an intermediate buffer,
	// costing an extra copy relative to Meta-Chaos's direct local copy.
	if len(cs.selfSrc) > 0 {
		stage := make([]float64, len(cs.selfSrc))
		for t, off := range cs.selfSrc {
			stage[t] = src.data[off]
		}
		for t, off := range cs.selfDst {
			dst.data[off] = stage[t]
		}
		p.ChargeMemOps(3 * len(cs.selfSrc))
		p.ChargeCopy(2 * 8 * len(cs.selfSrc))
	}
	for i := range cs.recvs {
		pl := &cs.recvs[i]
		data, _ := cs.comm.Recv(pl.peer, tag)
		vals := codec.BytesToFloat64s(data)
		if len(vals) != len(pl.offsets) {
			panic(fmt.Sprintf("mbparti: copy message from %d carries %d elements, schedule expects %d",
				pl.peer, len(vals), len(pl.offsets)))
		}
		for t, off := range pl.offsets {
			dst.data[off] = vals[t]
		}
		p.ChargeMemOps(len(pl.offsets))
	}
}
