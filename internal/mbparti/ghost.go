package mbparti

import (
	"fmt"

	"metachaos/internal/codec"
	"metachaos/internal/mpsim"
)

// Ghost-cell exchange: the inspector/executor pair that keeps a block
// array's halo margins coherent for stencil sweeps.  The inspector
// (BuildGhostSchedule) is pure box arithmetic over the replicated
// distribution descriptor; the executor (Exchange) sends one aggregated
// message per neighbouring process pair.

const tagGhostBase = 0x10000

// peerOffsets is one aggregated message lane: the offsets (into the
// halo-padded tile) to pack or unpack, in a global-point order both
// endpoints derive identically.
type peerOffsets struct {
	peer    int
	offsets []int32
}

// GhostSchedule is one process's plan for filling its array's halo.
type GhostSchedule struct {
	comm  *mpsim.Comm
	sends []peerOffsets
	recvs []peerOffsets
	seq   int
}

// BuildGhostSchedule computes the ghost exchange schedule for a (the
// inspector).  Collective over comm, whose ranks must match the
// array's distribution.
func BuildGhostSchedule(p *mpsim.Proc, comm *mpsim.Comm, a *Array) (*GhostSchedule, error) {
	if a.halo == 0 {
		return &GhostSchedule{comm: comm}, nil
	}
	if comm.Size() != a.dist.NProcs() {
		return nil, fmt.Errorf("mbparti: array distributed over %d procs, communicator has %d",
			a.dist.NProcs(), comm.Size())
	}
	me := comm.Rank()
	dist := a.dist
	shape := dist.Shape()
	nd := len(shape)
	h := a.halo

	myLo, myHi, _ := dist.LocalBox(me)
	// The halo I must receive covers my expanded box clipped to the
	// global domain, minus my own box.  Intersecting the expanded box
	// with each other rank's box yields exactly those cells, since
	// tiles are disjoint.
	expLo := make([]int, nd)
	expHi := make([]int, nd)
	for d := 0; d < nd; d++ {
		expLo[d] = max(0, myLo[d]-h)
		expHi[d] = min(shape[d], myHi[d]+h)
	}

	gs := &GhostSchedule{comm: comm}
	work := 0
	for r := 0; r < comm.Size(); r++ {
		if r == me {
			continue
		}
		rLo, rHi, _ := dist.LocalBox(r)
		// Receive from r: r's elements inside my expanded box.
		if box, ok := intersectBoxes(expLo, expHi, rLo, rHi); ok {
			offs := a.offsetsOfBox(box, myLo)
			gs.recvs = append(gs.recvs, peerOffsets{peer: r, offsets: offs})
			work += len(offs)
		}
		// Send to r: my elements inside r's expanded box.
		rExpLo := make([]int, nd)
		rExpHi := make([]int, nd)
		for d := 0; d < nd; d++ {
			rExpLo[d] = max(0, rLo[d]-h)
			rExpHi[d] = min(shape[d], rHi[d]+h)
		}
		if box, ok := intersectBoxes(rExpLo, rExpHi, myLo, myHi); ok {
			offs := a.offsetsOfBox(box, myLo)
			gs.sends = append(gs.sends, peerOffsets{peer: r, offsets: offs})
			work += len(offs)
		}
	}
	p.ChargeSectionOps(work + 2*comm.Size())
	return gs, nil
}

// offsetsOfBox enumerates the storage offsets of the global box's
// points in row-major global order, relative to a tile anchored at
// tileLo (points may fall in the halo).
func (a *Array) offsetsOfBox(box boxT, tileLo []int) []int32 {
	nd := len(box.lo)
	local := make([]int, nd)
	counts := make([]int, nd)
	n := 1
	for d := 0; d < nd; d++ {
		counts[d] = box.hi[d] - box.lo[d]
		n *= counts[d]
	}
	offs := make([]int32, 0, n)
	idx := make([]int, nd)
	for {
		for d := 0; d < nd; d++ {
			local[d] = box.lo[d] + idx[d] - tileLo[d]
		}
		offs = append(offs, int32(a.offsetLocal(local)))
		if !incr(idx, counts) {
			return offs
		}
	}
}

type boxT struct{ lo, hi []int }

func intersectBoxes(aLo, aHi, bLo, bHi []int) (boxT, bool) {
	nd := len(aLo)
	lo := make([]int, nd)
	hi := make([]int, nd)
	for d := 0; d < nd; d++ {
		lo[d] = max(aLo[d], bLo[d])
		hi[d] = min(aHi[d], bHi[d])
		if lo[d] >= hi[d] {
			return boxT{}, false
		}
	}
	return boxT{lo: lo, hi: hi}, true
}

// Exchange fills a's halo from its neighbours using the schedule (the
// executor).  Collective over the schedule's communicator.
func (gs *GhostSchedule) Exchange(p *mpsim.Proc, a *Array) {
	tag := tagGhostBase + gs.seq%1024
	gs.seq++
	for i := range gs.sends {
		pl := &gs.sends[i]
		buf := make([]float64, len(pl.offsets))
		for t, off := range pl.offsets {
			buf[t] = a.data[off]
		}
		p.ChargeMemOps(len(pl.offsets))
		gs.comm.Send(pl.peer, tag, codec.Float64sToBytes(buf))
	}
	for i := range gs.recvs {
		pl := &gs.recvs[i]
		data, _ := gs.comm.Recv(pl.peer, tag)
		vals := codec.BytesToFloat64s(data)
		if len(vals) != len(pl.offsets) {
			panic(fmt.Sprintf("mbparti: ghost message from %d carries %d elements, schedule expects %d",
				pl.peer, len(vals), len(pl.offsets)))
		}
		for t, off := range pl.offsets {
			a.data[off] = vals[t]
		}
		p.ChargeMemOps(len(pl.offsets))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
