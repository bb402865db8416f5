package chaoslib

import (
	"fmt"

	"metachaos/internal/codec"
	"metachaos/internal/core"
)

// Inspector/executor support for irregular sweeps (the paper's Loop 3):
// Localize is the inspector, translating the global indices a process's
// loop iterations touch into local slots — own elements address local
// storage directly, off-process elements get ghost slots — and building
// the communication schedules; Gather and ScatterAdd are the executors,
// run every time step.

// lane is one aggregated message lane of an irregular schedule.
type lane struct {
	peer    int
	offsets []int32
}

// Localized is the inspector's product for one indirection-array
// access pattern.
type Localized struct {
	ctx    *core.Ctx
	nlocal int

	// Slots maps each input index position to a local slot: slots
	// below nlocal address the array's own storage, slots at or above
	// nlocal address the ghost buffer (slot - nlocal).
	Slots []int32

	// nGhost is the required ghost buffer length.
	nGhost int

	// inLanes: ghost slots to fill, per owning process.
	// outLanes: my element offsets other processes reference.
	inLanes  []lane
	outLanes []lane

	seqGather  int
	seqScatter int
}

// NGhost returns the ghost buffer length required by Gather and
// ScatterAdd.
func (lz *Localized) NGhost() int { return lz.nGhost }

// Localize is the inspector: collective over ctx.Comm, it translates
// each process's global index list against a's distribution.
func Localize(ctx *core.Ctx, a *Array, indices []int32) *Localized {
	p := ctx.P
	locs := a.tt.Lookup(ctx, indices)
	me := int32(ctx.Comm.Rank())

	lz := &Localized{ctx: ctx, nlocal: len(a.data), Slots: make([]int32, len(indices))}

	// Deduplicate off-process elements into ghost slots.
	type remote struct {
		slot int32
		off  int32
	}
	ghostOf := map[Loc]int32{}
	perOwner := map[int32][]remote{}
	var ownerOrder []int32
	for i, loc := range locs {
		if loc.Proc == me {
			lz.Slots[i] = loc.Off
			continue
		}
		slot, ok := ghostOf[loc]
		if !ok {
			slot = int32(lz.nGhost)
			lz.nGhost++
			ghostOf[loc] = slot
			if _, seen := perOwner[loc.Proc]; !seen {
				ownerOrder = append(ownerOrder, loc.Proc)
			}
			perOwner[loc.Proc] = append(perOwner[loc.Proc], remote{slot: slot, off: loc.Off})
		}
		lz.Slots[i] = int32(lz.nlocal) + slot
	}
	p.ChargeMemOps(2 * len(indices))

	// Tell each owner which of its elements we need (by local offset);
	// owners record the pack lists for the executor.
	bufs := make([][]byte, ctx.Comm.Size())
	for _, owner := range ownerOrder {
		rs := perOwner[owner]
		var w codec.Writer
		slots := make([]int32, len(rs))
		offs := make([]int32, len(rs))
		for k, r := range rs {
			slots[k] = r.slot
			offs[k] = r.off
		}
		w.PutInt32s(offs)
		bufs[owner] = w.Bytes()
		lz.inLanes = append(lz.inLanes, lane{peer: int(owner), offsets: slots})
	}
	parts := ctx.Comm.Alltoall(bufs, nil)
	for src, part := range parts {
		if len(part) == 0 {
			continue
		}
		offs := codec.NewReader(part).Int32s()
		lz.outLanes = append(lz.outLanes, lane{peer: src, offsets: offs})
		p.ChargeMemOps(len(offs))
	}
	return lz
}

// Gather fills the ghost buffer with the current values of the
// off-process elements (the executor's read half).  Collective.
func (lz *Localized) Gather(a *Array, ghosts []float64) {
	if len(ghosts) < lz.nGhost {
		panic(fmt.Sprintf("chaoslib: ghost buffer of %d, need %d", len(ghosts), lz.nGhost))
	}
	p := lz.ctx.P
	tag := tagGather + lz.seqGather%1024
	lz.seqGather++
	for i := range lz.outLanes {
		ln := &lz.outLanes[i]
		buf := make([]float64, len(ln.offsets))
		for t, off := range ln.offsets {
			buf[t] = a.data[off]
		}
		p.ChargeMemOps(len(ln.offsets))
		lz.ctx.Comm.Send(ln.peer, tag, codec.Float64sToBytes(buf))
	}
	for i := range lz.inLanes {
		ln := &lz.inLanes[i]
		data, _ := lz.ctx.Comm.Recv(ln.peer, tag)
		vals := codec.BytesToFloat64s(data)
		for t, slot := range ln.offsets {
			ghosts[slot] = vals[t]
		}
		p.ChargeMemOps(len(ln.offsets))
	}
}

// ScatterAdd pushes ghost-buffer accumulations back to the owning
// processes, which add them into their elements (the executor's write
// half for reduction loops).  Collective.
func (lz *Localized) ScatterAdd(a *Array, ghosts []float64) {
	p := lz.ctx.P
	tag := tagScatter + lz.seqScatter%1024
	lz.seqScatter++
	for i := range lz.inLanes {
		ln := &lz.inLanes[i]
		buf := make([]float64, len(ln.offsets))
		for t, slot := range ln.offsets {
			buf[t] = ghosts[slot]
		}
		p.ChargeMemOps(len(ln.offsets))
		lz.ctx.Comm.Send(ln.peer, tag, codec.Float64sToBytes(buf))
	}
	for i := range lz.outLanes {
		ln := &lz.outLanes[i]
		data, _ := lz.ctx.Comm.Recv(ln.peer, tag)
		vals := codec.BytesToFloat64s(data)
		for t, off := range ln.offsets {
			a.data[off] += vals[t]
		}
		p.ChargeMemOps(len(ln.offsets))
		p.ChargeFlops(len(ln.offsets))
	}
}

// Value reads through a localized slot: local element or ghost.
func Value(a *Array, ghosts []float64, slot int32) float64 {
	if int(slot) < len(a.data) {
		return a.data[slot]
	}
	return ghosts[int(slot)-len(a.data)]
}

// Accumulate adds v through a localized slot: directly into the local
// element, or into the ghost buffer for a later ScatterAdd.
func Accumulate(a *Array, ghosts []float64, slot int32, v float64) {
	if int(slot) < len(a.data) {
		a.data[slot] += v
	} else {
		ghosts[int(slot)-len(a.data)] += v
	}
}
