package mpsim

import "metachaos/internal/bufpool"

// Nonblocking receives, in the style of MPI_Irecv / MPI_Wait.  Sends in
// this simulator are always buffered and never block, so only a
// receive needs a handle: Irecv posts one that TakePayload or Waitany
// completes later, letting a process issue all its receives before
// blocking — the pattern the original libraries' executors used to
// overlap communication.

// Request is a posted receive's handle.
type Request struct {
	p    *Proc
	done bool
	// pay holds a completed receive's contents; the request owns one
	// reference until TakePayload hands it off or Free/Cancel releases
	// it.
	pay *bufpool.Payload
	src int

	// Pending receive matcher.
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

// Irecv posts a receive for (from, tag).  The message is claimed when
// the request is completed; posting order among outstanding Irecvs with
// overlapping matchers determines claim order at that time.
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
	r.wantSrc = wsrc
	r.wantTag = c.userWire(tag)
	return r
}

// complete claims a pending receive's message, blocking until one
// matches.
func (r *Request) complete() {
	if !r.done {
		r.pay, r.src = r.p.recvMsg(r.wantSrc, r.wantTag)
	}
	r.done = true
}

// TakePayload returns a completed receive's contents without
// flattening; the payload's reference now belongs to the caller
// (Release it after reading).  It completes the request if
// necessary, and transfers the payload only once: a second call or a
// cancelled receive returns nil.
func (r *Request) TakePayload() (*bufpool.Payload, int) {
	r.complete()
	pay := r.pay
	r.pay = nil
	return pay, r.src
}

// Waitany blocks until one of the not-yet-completed requests finishes,
// completes it, and returns its index; it returns -1 when every
// request is already complete (MPI_Waitany's MPI_UNDEFINED).  Among
// pending receives the earliest-arriving matching message is claimed,
// which is the primitive an overlapped executor uses to unpack messages
// in arrival order.  All requests must belong to the same process.
func Waitany(reqs []*Request) int {
	var p *Proc
	for _, r := range reqs {
		if r == nil {
			panic("mpsim: Waitany on nil request")
		}
		if r.done {
			continue
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
		if !r.done {
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
		if r != nil && !r.done {
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
