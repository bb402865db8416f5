package mpsim

import "testing"

// wait completes r and returns its bytes, flattened, and the source's
// world rank.
func wait(r *Request) ([]byte, int) {
	pay, src := r.TakePayload()
	data := pay.Flatten()
	pay.Release()
	return data, src
}

func TestIrecvWait(t *testing.T) {
	RunSPMD(Ideal(), 2, func(p *Proc) {
		c := p.Comm()
		if c.Rank() == 0 {
			// Post receives before the data exists, then wait.
			r1 := c.Irecv(1, 5)
			r2 := c.Irecv(1, 6)
			d2, _ := wait(r2)
			d1, _ := wait(r1)
			if string(d1) != "one" || string(d2) != "two" {
				t.Errorf("got %q/%q", d1, d2)
			}
		} else {
			c.Send(0, 5, []byte("one"))
			c.Send(0, 6, []byte("two"))
		}
	})
}

// Sends are buffered: a send completes without its receiver having
// posted anything, so the sender's clock moves on while the receiver is
// still busy.
func TestIsendCompletesImmediately(t *testing.T) {
	RunSPMD(Ideal(), 2, func(p *Proc) {
		c := p.Comm()
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("x"))
			if p.Clock() >= 1 {
				t.Errorf("send returned at %g, after the receiver posted", p.Clock())
			}
		} else {
			p.Charge(1) // busy before receiving
			data, _ := c.Recv(0, 1)
			if string(data) != "x" {
				t.Errorf("got %q", data)
			}
		}
	})
}

func TestRequestTest(t *testing.T) {
	RunSPMD(Ideal(), 2, func(p *Proc) {
		c := p.Comm()
		if c.Rank() == 0 {
			r := c.Irecv(1, 2)
			if r.Done() {
				t.Error("Done true before any send")
			}
			c.Send(1, 1, nil) // release the peer
			// Wait for the message to arrive.
			data, _ := wait(r)
			if string(data) != "now" {
				t.Errorf("got %q", data)
			}
			if !r.Done() {
				t.Error("Done false after completion")
			}
		} else {
			c.Recv(0, 1)
			c.Send(0, 2, []byte("now"))
		}
	})
}

// Draining a request set with Waitany until it reports -1 completes
// every request, each holding its own payload.
func TestWaitAll(t *testing.T) {
	RunSPMD(Ideal(), 3, func(p *Proc) {
		c := p.Comm()
		if c.Rank() == 0 {
			reqs := []*Request{c.Irecv(1, 3), c.Irecv(2, 3)}
			for Waitany(reqs) >= 0 {
			}
			d1, _ := wait(reqs[0])
			d2, _ := wait(reqs[1])
			if string(d1) != "a" || string(d2) != "b" {
				t.Errorf("got %q/%q", d1, d2)
			}
		} else if c.Rank() == 1 {
			c.Send(0, 3, []byte("a"))
		} else {
			c.Send(0, 3, []byte("b"))
		}
	})
}

func TestWaitanyArrivalOrder(t *testing.T) {
	// Rank 1 computes before sending while rank 2 sends at clock 0, so
	// rank 2's message arrives first; Waitany must complete its request
	// first even though rank 1's was posted first.  The tag-6 exchange
	// makes rank 0 scan only after both data messages are queued.
	RunSPMD(SP2(), 3, func(p *Proc) {
		c := p.Comm()
		switch c.Rank() {
		case 0:
			c.Recv(1, 6)
			c.Recv(2, 6)
			reqs := []*Request{c.Irecv(1, 7), c.Irecv(2, 7)}
			first := Waitany(reqs)
			if first != 1 {
				t.Errorf("first completion was request %d, want 1 (earliest arrival)", first)
			}
			d, src := wait(reqs[first])
			if string(d) != "late-posted" || src != 2 {
				t.Errorf("first payload %q from %d", d, src)
			}
			second := Waitany(reqs)
			if second != 0 {
				t.Errorf("second completion was request %d, want 0", second)
			}
			if Waitany(reqs) != -1 {
				t.Error("Waitany over completed requests should return -1")
			}
		case 1:
			p.Charge(1.0) // long local work before sending
			c.Send(0, 7, []byte("slow"))
			c.Send(0, 6, nil)
		case 2:
			c.Send(0, 7, []byte("late-posted"))
			c.Send(0, 6, nil)
		}
	})
}

// A drain over receives from several peers, one of which sends only
// after hearing from the receiver, completes without deadlock.
func TestWaitallSliceForm(t *testing.T) {
	RunSPMD(Ideal(), 4, func(p *Proc) {
		c := p.Comm()
		if c.Rank() == 0 {
			c.Send(1, 8, []byte("out"))
			reqs := []*Request{c.Irecv(1, 8), c.Irecv(2, 8), c.Irecv(3, 8)}
			for Waitany(reqs) >= 0 {
			}
			sum := 0
			for _, r := range reqs {
				d, _ := wait(r)
				sum += int(d[0])
			}
			if sum != 1+2+3 {
				t.Errorf("payload sum %d", sum)
			}
		} else {
			if c.Rank() == 1 {
				c.Recv(0, 8)
			}
			c.Send(0, 8, []byte{byte(c.Rank())})
		}
	})
}

// Waitany never returns a request that is already complete.
func TestWaitanySendCompletesImmediately(t *testing.T) {
	RunSPMD(Ideal(), 2, func(p *Proc) {
		c := p.Comm()
		if c.Rank() == 0 {
			reqs := []*Request{c.Irecv(1, 9), c.Irecv(1, 10)}
			wait(reqs[1])
			if i := Waitany(reqs); i != 0 {
				t.Errorf("Waitany picked %d, want the pending receive (0)", i)
			}
			if i := Waitany(reqs); i != -1 {
				t.Errorf("Waitany picked %d, want -1 once both are complete", i)
			}
		} else {
			c.Send(0, 10, []byte("first"))
			c.Send(0, 9, []byte("second"))
		}
	})
}

func TestIrecvOverlapPattern(t *testing.T) {
	// The executor pattern: post all receives, do local work, send,
	// then wait - no deadlock regardless of order.
	RunSPMD(SP2(), 4, func(p *Proc) {
		c := p.Comm()
		var reqs []*Request
		for peer := 0; peer < c.Size(); peer++ {
			if peer != c.Rank() {
				reqs = append(reqs, c.Irecv(peer, 9))
			}
		}
		p.ChargeFlops(1000) // local work before sending
		for peer := 0; peer < c.Size(); peer++ {
			if peer != c.Rank() {
				c.Send(peer, 9, []byte{byte(c.Rank())})
			}
		}
		seen := 0
		for _, r := range reqs {
			data, _ := wait(r)
			seen += int(data[0])
		}
		want := 6 - c.Rank() // 0+1+2+3 minus self
		if seen != want {
			t.Errorf("rank %d saw sum %d, want %d", c.Rank(), seen, want)
		}
	})
}
