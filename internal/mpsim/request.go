package mpsim

import (
	"fmt"

	"metachaos/internal/bufpool"
	"metachaos/internal/codec"
)

// Nonblocking point-to-point operations, in the style of MPI_Isend /
// MPI_Irecv / MPI_Wait.  Sends in this simulator are always buffered,
// so Isend completes immediately; Irecv posts a receive that Wait
// completes later, letting a process issue all its receives before
// blocking — the pattern the original libraries' executors used to
// overlap communication.

// Request is a pending nonblocking operation handle.
type Request struct {
	p    *Proc
	done bool
	// pay holds a completed receive's contents; the request owns one
	// reference until Wait flattens it into data, TakePayload hands it
	// off, or Free/Cancel releases it.
	pay  *bufpool.Payload
	data []byte // Wait's cached flattened result
	src  int

	// Pending receive matcher.
	isRecv  bool
	wantSrc int
	wantTag int
}

// maxFreeReqs caps a process's request freelist.
const maxFreeReqs = 256

// getReq pops a recycled request struct or allocates one.
func (p *Proc) getReq() *Request {
	if n := len(p.reqFree); n > 0 {
		r := p.reqFree[n-1]
		p.reqFree = p.reqFree[:n-1]
		return r
	}
	return &Request{}
}

// Free recycles a completed or cancelled request onto its process's
// freelist, releasing any unclaimed payload.  The caller must not
// touch r afterwards, and must not Free a request that is still
// pending.
func (r *Request) Free() {
	if r.pay != nil {
		r.pay.Release()
	}
	p := r.p
	*r = Request{}
	if p != nil && len(p.reqFree) < maxFreeReqs {
		p.reqFree = append(p.reqFree, r)
	}
}

// Isend starts a buffered send and returns a request that completes
// without blocking (buffered sends never block); Wait, Test and
// Waitany all complete it immediately, and Waitany claims it exactly
// once.
func (c *Comm) Isend(to, tag int, data []byte) *Request {
	c.Send(to, tag, data)
	return &Request{p: c.p}
}

// Irecv posts a receive for (from, tag).  The message is claimed when
// Wait is called; posting order among outstanding Irecvs with
// overlapping matchers determines claim order at Wait time.
func (c *Comm) Irecv(from, tag int) *Request {
	c.require()
	wsrc := AnySource
	if from != AnySource {
		wsrc = c.ranks[from]
	}
	if tag == AnyTag {
		panic("mpsim: Comm.Irecv does not support AnyTag; use a specific tag")
	}
	r := c.p.getReq()
	r.p = c.p
	r.isRecv = true
	r.wantSrc = wsrc
	r.wantTag = c.userWire(tag)
	return r
}

// complete claims a pending receive's message, blocking until one
// matches; sends (always buffered) complete at once.
func (r *Request) complete() {
	if !r.done && r.isRecv {
		r.pay, r.src = r.p.recvMsg(r.wantSrc, r.wantTag)
	}
	r.done = true
}

// Wait blocks until the request completes and returns the received
// bytes and the source's world rank (nil and -1 for sends).  Waiting
// again returns the cached result.
func (r *Request) Wait() ([]byte, int) {
	r.complete()
	if !r.isRecv {
		return nil, -1
	}
	if r.pay != nil {
		r.data = r.pay.Flatten()
		r.pay.Release()
		r.pay = nil
	}
	return r.data, r.src
}

// TakePayload returns a completed receive's contents without
// flattening; the payload's reference now belongs to the caller
// (Release it after reading).  It completes the request like Wait if
// necessary, and transfers the payload only once: a second call, a
// cancelled receive or a send returns nil (and -1 for a send).
func (r *Request) TakePayload() (*bufpool.Payload, int) {
	r.complete()
	if !r.isRecv {
		return nil, -1
	}
	pay := r.pay
	r.pay = nil
	return pay, r.src
}

// Test reports whether the request could complete without blocking,
// completing it if so.  For a pending receive it checks the queue for
// a matching message.
func (r *Request) Test() bool {
	if r.done || !r.isRecv {
		r.done = true
		return true
	}
	for i, msg := range r.p.queue {
		if matches(msg, r.wantSrc, r.wantTag) {
			r.pay, r.src = r.p.claim(i)
			r.done = true
			return true
		}
	}
	return false
}

// WaitAll completes every request in order.
func WaitAll(reqs ...*Request) {
	for _, r := range reqs {
		if r == nil {
			panic("mpsim: WaitAll on nil request")
		}
		r.Wait()
	}
}

// Waitall completes every request in the slice, claiming receives in
// arrival order (repeated Waitany) rather than slice order, so one
// slow peer does not serialize the completion of the others.
func Waitall(reqs []*Request) {
	for Waitany(reqs) >= 0 {
	}
}

// Waitany blocks until one of the not-yet-completed requests finishes,
// completes it, and returns its index; it returns -1 when every
// request is already complete (MPI_Waitany's MPI_UNDEFINED).  Send
// requests complete immediately (sends are buffered); among pending
// receives the earliest-arriving matching message is claimed, which is
// the primitive an overlapped executor uses to unpack messages in
// arrival order.  All requests must belong to the same process.
func Waitany(reqs []*Request) int {
	var p *Proc
	for i, r := range reqs {
		if r == nil {
			panic("mpsim: Waitany on nil request")
		}
		if r.done {
			continue
		}
		if !r.isRecv {
			r.done = true
			return i
		}
		if p == nil {
			p = r.p
		} else if r.p != p {
			panic("mpsim: Waitany over requests of different processes")
		}
	}
	if p == nil {
		return -1
	}
	wants, idx := p.wantBuf[:0], p.wantIdx[:0]
	for i, r := range reqs {
		if !r.done && r.isRecv {
			wants = append(wants, recvWant{src: r.wantSrc, tag: r.wantTag})
			idx = append(idx, i)
		}
	}
	p.wantBuf, p.wantIdx = wants, idx
	wi, pay, src := p.recvAny(wants)
	r := reqs[idx[wi]]
	r.done, r.pay, r.src = true, pay, src
	return idx[wi]
}

// Waitany reporting its peer: reqs[i].Peer() is the world rank a
// pending receive is bound to, or -1 for AnySource and sends.
func (r *Request) Peer() int {
	if r.isRecv && r.wantSrc != AnySource {
		return r.wantSrc
	}
	return -1
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done }

// Cancel marks a pending request complete without waiting for it.
// Higher layers use it to abandon receives from a peer the transport
// declared unreachable; a message that later matches the cancelled
// receive stays in the queue.  Any payload already claimed is
// released.
func (r *Request) Cancel() {
	if r.pay != nil {
		r.pay.Release()
		r.pay = nil
	}
	r.done = true
}

// WaitanyTimeout is Waitany bounded by a virtual-time deadline.  It
// returns the completed request's index, or -1 and a *NetError
// wrapping ErrTimeout (deadline passed) or ErrPeerUnreachable (every
// pending receive is bound to an abandoned peer; NetError.Peer names
// one).  timeout <= 0 waits forever but still converts transport
// failures into errors.
func WaitanyTimeout(reqs []*Request, timeout float64) (idx int, err error) {
	if len(reqs) == 0 {
		return -1, nil
	}
	var p *Proc
	for _, r := range reqs {
		if r != nil && !r.done && r.isRecv {
			p = r.p
			break
		}
	}
	if p == nil {
		return Waitany(reqs), nil
	}
	err = p.WithTimeout(timeout, func() { idx = Waitany(reqs) })
	if err != nil {
		return -1, err
	}
	return idx, nil
}

// WaitallTimeout completes every request in arrival order under one
// shared virtual-time deadline, returning the first failure.  On error
// the remaining requests are left pending — the caller decides whether
// to Cancel them or keep waiting.
func WaitallTimeout(reqs []*Request, timeout float64) error {
	if len(reqs) == 0 {
		return nil
	}
	var p *Proc
	for _, r := range reqs {
		if r != nil && !r.done && r.isRecv {
			p = r.p
			break
		}
	}
	if p == nil {
		Waitall(reqs)
		return nil
	}
	return p.WithTimeout(timeout, func() {
		for Waitany(reqs) >= 0 {
		}
	})
}

// Probe reports whether a message matching (from, tag) is available
// without receiving it; from may be AnySource.  It never blocks.
func (c *Comm) Probe(from, tag int) bool {
	c.require()
	wsrc := AnySource
	if from != AnySource {
		wsrc = c.ranks[from]
	}
	wire := c.userWire(tag)
	for _, msg := range c.p.queue {
		if matches(msg, wsrc, wire) {
			return true
		}
	}
	return false
}

// Scatter distributes root's per-member buffers: member i receives
// bufs[i].  Non-roots pass nil.
func (c *Comm) Scatter(root int, bufs [][]byte) []byte {
	c.require()
	sp := c.p.beginSpan("coll.scatter")
	seq := c.nextSeq()
	wire := c.collWire(seq, phGather)
	if c.myRank == root {
		if len(bufs) != c.Size() {
			panic(fmt.Sprintf("mpsim: Scatter needs %d buffers, got %d", c.Size(), len(bufs)))
		}
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			c.p.send(c.ranks[i], wire, bufs[i])
		}
		own := make([]byte, len(bufs[root]))
		copy(own, bufs[root])
		sp.End(c.p.clock)
		return own
	}
	data, _ := c.p.recv(c.ranks[root], wire)
	sp.End(c.p.clock)
	return data
}

// AllreduceFloat64s element-wise combines equal-length vectors across
// the members and returns the result everywhere, the vector form
// solvers use for residual norms and dot products.
func (c *Comm) AllreduceFloat64s(op ReduceOp, xs []float64) []float64 {
	c.require()
	sp := c.p.beginSpan("coll.allreduce")
	seq := c.nextSeq()
	buf := codec.Float64sToBytes(xs)
	acc := c.reduceBytes(0, seq, buf, func(acc, in []byte) []byte {
		a := codec.BytesToFloat64s(acc)
		b := codec.BytesToFloat64s(in)
		if len(a) != len(b) {
			panic(fmt.Sprintf("mpsim: AllreduceFloat64s length mismatch: %d vs %d", len(a), len(b)))
		}
		for i := range a {
			a[i] = combineFloat64(op, a[i], b[i])
		}
		return codec.Float64sToBytes(a)
	})
	acc = c.bcastBytes(0, seq, acc)
	sp.End(c.p.clock)
	return codec.BytesToFloat64s(acc)
}
