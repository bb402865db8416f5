package chaoslib

import (
	"fmt"

	"metachaos/internal/codec"
	"metachaos/internal/core"
)

// Native CHAOS copy schedules (the Table 2 baseline): copy element
// srcIndices[k] of one irregular distribution onto element
// dstIndices[k] of another, where both distributions are described by
// translation tables.  Any array can be given a pointwise table — the
// paper's experiment wraps the regular Multiblock Parti mesh in a
// Chaos translation table, paying the table's memory and an extra
// level of indirection in the executor, which is exactly the overhead
// Meta-Chaos avoids.

// CopySchedule is one process's portion of a native Chaos copy.
type CopySchedule struct {
	ctx   *core.Ctx
	sends []lane
	recvs []lane
	// Same-process elements; Chaos stages them through the message
	// buffers' indirection path rather than copying directly.
	selfSrc []int32
	selfDst []int32
	seq     int
}

// BuildCopySchedule builds the native schedule, collectively over
// ctx.Comm.  Every process passes the same full index lists (the
// paper's mapping arrays are replicated); positions are chunked over
// the processes, dereferenced against both tables, and the resulting
// send/receive lists are routed to their owners.
func BuildCopySchedule(ctx *core.Ctx, srcTT, dstTT *TTable, srcIndices, dstIndices []int32) (*CopySchedule, error) {
	if len(srcIndices) != len(dstIndices) {
		return nil, fmt.Errorf("chaoslib: %d source indices but %d destination indices",
			len(srcIndices), len(dstIndices))
	}
	comm := ctx.Comm
	p := ctx.P
	n := len(srcIndices)
	nP := comm.Size()
	me := comm.Rank()
	lo, hi := me*n/nP, (me+1)*n/nP

	// Dereference my chunk against both tables (two collective lookup
	// rounds — the dominant cost the paper measures).
	sLocs := srcTT.Lookup(ctx, srcIndices[lo:hi])
	dLocs := dstTT.Lookup(ctx, dstIndices[lo:hi])

	// Route each element's send and receive halves to their owners.
	frag := make([]codec.Writer, nP)
	for k := 0; k < hi-lo; k++ {
		s, d := sLocs[k], dLocs[k]
		if s.Proc == d.Proc {
			w := &frag[s.Proc]
			w.PutInt32(2)
			w.PutInt32(s.Off)
			w.PutInt32(d.Off)
			continue
		}
		ws := &frag[s.Proc]
		ws.PutInt32(0)
		ws.PutInt32(d.Proc)
		ws.PutInt32(s.Off)
		wd := &frag[d.Proc]
		wd.PutInt32(1)
		wd.PutInt32(s.Proc)
		wd.PutInt32(d.Off)
	}
	p.ChargeSectionOps(2 * (hi - lo))
	bufs := make([][]byte, nP)
	for r := range bufs {
		bufs[r] = frag[r].Bytes()
	}
	parts := comm.Alltoall(bufs, nil)

	cs := &CopySchedule{ctx: ctx}
	sendMap := map[int]*lane{}
	recvMap := map[int]*lane{}
	var sendOrder, recvOrder []int
	total := 0
	for _, part := range parts {
		r := codec.NewReader(part)
		for r.Remaining() > 0 {
			switch kind := r.Int32(); kind {
			case 0:
				peer := int(r.Int32())
				ln := sendMap[peer]
				if ln == nil {
					ln = &lane{peer: peer}
					sendMap[peer] = ln
					sendOrder = append(sendOrder, peer)
				}
				ln.offsets = append(ln.offsets, r.Int32())
			case 1:
				peer := int(r.Int32())
				ln := recvMap[peer]
				if ln == nil {
					ln = &lane{peer: peer}
					recvMap[peer] = ln
					recvOrder = append(recvOrder, peer)
				}
				ln.offsets = append(ln.offsets, r.Int32())
			case 2:
				cs.selfSrc = append(cs.selfSrc, r.Int32())
				cs.selfDst = append(cs.selfDst, r.Int32())
			default:
				return nil, fmt.Errorf("chaoslib: corrupt copy fragment kind %d", kind)
			}
			total++
		}
	}
	p.ChargeSectionOps(total)
	for _, peer := range sendOrder {
		cs.sends = append(cs.sends, *sendMap[peer])
	}
	for _, peer := range recvOrder {
		cs.recvs = append(cs.recvs, *recvMap[peer])
	}
	return cs, nil
}

// Execute copies srcData elements onto dstData per the schedule.  The
// storage slices are passed explicitly so a non-Chaos array (the
// regular mesh wrapped in a pointwise table) can participate.
// Relative to Meta-Chaos the executor pays an extra staging copy and
// an extra indirect access per element — the correspondence between
// the two representations of each element must be resolved through
// the table's pointwise view (the paper's Section 5.1 discussion).
func (cs *CopySchedule) Execute(srcData, dstData []float64) {
	cs.run(srcData, dstData, false)
}

// ExecuteReverse copies destination elements back onto the source
// through the same schedule (the schedules are symmetric, like
// Meta-Chaos's).  Arguments are given in reverse roles: the data being
// read first.
func (cs *CopySchedule) ExecuteReverse(dstData, srcData []float64) {
	cs.run(dstData, srcData, true)
}

func (cs *CopySchedule) run(fromData, toData []float64, reverse bool) {
	p := cs.ctx.P
	tag := tagCopy + cs.seq%1024
	cs.seq++
	sends, recvs := cs.sends, cs.recvs
	selfFrom, selfTo := cs.selfSrc, cs.selfDst
	if reverse {
		sends, recvs = cs.recvs, cs.sends
		selfFrom, selfTo = cs.selfDst, cs.selfSrc
	}
	for i := range sends {
		ln := &sends[i]
		// Extra internal copy: gather into a staging area, then pack.
		stage := make([]float64, len(ln.offsets))
		for t, off := range ln.offsets {
			stage[t] = fromData[off]
		}
		p.Charge(1.5 * float64(len(ln.offsets)) * p.Machine().MemOpTime)
		p.ChargeCopy(8 * len(ln.offsets))
		cs.ctx.Comm.Send(ln.peer, tag, codec.Float64sToBytes(stage))
	}
	if len(selfFrom) > 0 {
		stage := make([]float64, len(selfFrom))
		for t, off := range selfFrom {
			stage[t] = fromData[off]
		}
		for t, off := range selfTo {
			toData[off] = stage[t]
		}
		p.ChargeMemOps(4 * len(selfFrom))
		p.ChargeCopy(2 * 8 * len(selfFrom))
	}
	for i := range recvs {
		ln := &recvs[i]
		data, _ := cs.ctx.Comm.Recv(ln.peer, tag)
		vals := codec.BytesToFloat64s(data)
		if len(vals) != len(ln.offsets) {
			panic(fmt.Sprintf("chaoslib: copy message from %d carries %d elements, schedule expects %d",
				ln.peer, len(vals), len(ln.offsets)))
		}
		for t, off := range ln.offsets {
			toData[off] = vals[t]
		}
		p.Charge(1.5 * float64(len(ln.offsets)) * p.Machine().MemOpTime)
		p.ChargeCopy(8 * len(ln.offsets))
	}
}
