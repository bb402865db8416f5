package serve

import (
	"testing"
	"time"
)

// dispatchDeadline bounds every wait in the dispatcher tests, so a
// regression in the batching rule fails a test instead of hanging it.
const dispatchDeadline = 10 * time.Second

// batchRec is one batch as the dispatcher reported it.
type batchRec struct {
	ops     int
	expired bool
}

// dispatchProbe drives one resident world's dispatcher directly: ops go
// in through the submit channel, no socket and no session in between,
// and every batch the dispatcher ships is recorded in order.
type dispatchProbe struct {
	t       *testing.T
	srv     *Server
	r       *runner
	batches chan batchRec
}

// newDispatchProbe starts a 1×1 world through a server (so batches feed
// the server's counters) and taps its batch hook.  Cleanup shuts the
// world down with the server.
func newDispatchProbe(t *testing.T, flush time.Duration) *dispatchProbe {
	t.Helper()
	srv := NewServer(Options{FlushWindow: flush})
	t.Cleanup(func() { srv.Close() })
	srv.mu.Lock()
	r := srv.startRunnerLocked(worldKey{srcProcs: 1, dstProcs: 1})
	srv.mu.Unlock()
	// The buffer holds more batches than any case ships, so the hook
	// never blocks the dispatcher it observes.
	p := &dispatchProbe{t: t, srv: srv, r: r, batches: make(chan batchRec, 64)}
	count := r.onBatch
	r.onBatch = func(ops int, expired bool) {
		count(ops, expired)
		p.batches <- batchRec{ops, expired}
	}
	return p
}

// submit hands o to the dispatcher and returns once the dispatcher
// holds it.  The op is a close of a handle no world has open, which
// every rank executes as a no-op.
func (p *dispatchProbe) submit(from *tenantState, leave bool) *op {
	p.t.Helper()
	o := &op{cmd: cmdClose, from: from, leave: leave, reply: make(chan opReply, 1)}
	select {
	case p.r.submit <- o:
	case <-time.After(dispatchDeadline):
		p.t.Fatal("dispatcher did not take the op")
	}
	return o
}

// answered waits for the world's reply to each op.
func (p *dispatchProbe) answered(ops ...*op) {
	p.t.Helper()
	for _, o := range ops {
		select {
		case rep := <-o.reply:
			if rep.err != nil {
				p.t.Fatalf("op failed: %v", rep.err)
			}
		case <-time.After(dispatchDeadline):
			p.t.Fatal("op never answered: its batch did not ship")
		}
	}
}

// shipped waits for the next batch and checks its size and whether the
// flush window closed it.
func (p *dispatchProbe) shipped(ops int, expired bool) {
	p.t.Helper()
	select {
	case b := <-p.batches:
		if b.ops != ops || b.expired != expired {
			p.t.Fatalf("batch of %d ops (window expired: %v), want %d (%v)", b.ops, b.expired, ops, expired)
		}
	case <-time.After(dispatchDeadline):
		p.t.Fatalf("no batch shipped, want one of %d ops", ops)
	}
}

// expiries reads the server's window-expired counter.
func (p *dispatchProbe) expiries() float64 {
	return p.srv.Stats()["serve_batch_window_expired_total"]
}

// TestDispatchShipsCompleteBatch pins the dispatcher's rule: a batch
// ships as soon as every member session has an op in it, and the flush
// window only bounds the wait for a member that has gone quiet.  With
// an hour-long window every "at once" below would otherwise hang until
// the deadline.
func TestDispatchShipsCompleteBatch(t *testing.T) {
	a, b := &tenantState{tenant: "a"}, &tenantState{tenant: "b"}

	t.Run("complete batch ships at once", func(t *testing.T) {
		p := newDispatchProbe(t, time.Hour)
		// a is the only member: its op completes the batch alone.
		p.answered(p.submit(a, false))
		p.shipped(1, false)
		// b joins with this op and waits for a, whose next op completes
		// the batch.
		ob := p.submit(b, false)
		oa := p.submit(a, false)
		p.shipped(2, false)
		p.answered(ob, oa)
		if n := p.expiries(); n != 0 {
			t.Errorf("window expired %v times, want 0", n)
		}
	})

	t.Run("window drops a quiet member", func(t *testing.T) {
		p := newDispatchProbe(t, 5*time.Millisecond)
		p.answered(p.submit(a, false))
		p.shipped(1, false)
		// a stays quiet: b's op ships when the window closes, and a
		// stops being a member.
		p.answered(p.submit(b, false))
		p.shipped(1, true)
		if n := p.expiries(); n != 1 {
			t.Fatalf("window expired %v times, want 1", n)
		}
		// b is now the only member, so its next lone op ships at once.
		p.answered(p.submit(b, false))
		p.shipped(1, false)
		if n := p.expiries(); n != 1 {
			t.Errorf("window expired %v times after b's lone op, want still 1", n)
		}
	})

	t.Run("daemon ops wait only for members", func(t *testing.T) {
		p := newDispatchProbe(t, time.Hour)
		// No members: a nil-from op (a revival replay, Standalone) ships
		// at once.
		p.answered(p.submit(nil, false))
		p.shipped(1, false)
		p.answered(p.submit(a, false))
		p.shipped(1, false)
		// With a member, a nil-from op waits like any other op.
		on := p.submit(nil, false)
		oa := p.submit(a, false)
		p.shipped(2, false)
		p.answered(on, oa)
	})

	t.Run("leave ends membership at once", func(t *testing.T) {
		p := newDispatchProbe(t, time.Hour)
		p.answered(p.submit(a, false))
		p.shipped(1, false)
		// b waits for a; a's departing close completes the batch.
		ob := p.submit(b, false)
		oa := p.submit(a, true)
		p.shipped(2, false)
		p.answered(ob, oa)
		// a is gone: b's next op has no one to wait for.
		p.answered(p.submit(b, false))
		p.shipped(1, false)
	})

	t.Run("shutdown ends the loop", func(t *testing.T) {
		p := newDispatchProbe(t, time.Hour)
		p.answered(p.submit(a, false))
		p.shipped(1, false)
		// b's op waits for a; the shutdown joins that batch and ships it.
		ob := p.submit(b, false)
		closed := make(chan struct{})
		go func() {
			p.srv.Close()
			close(closed)
		}()
		p.shipped(2, false)
		p.answered(ob)
		select {
		case <-closed:
		case <-time.After(dispatchDeadline):
			t.Fatal("server close did not end the world")
		}
	})
}

// TestDispatchByeLeavesAtOnce is the departed-tenant rule end to end: a
// tenant's Bye takes it out of its world's member set with its reclaim
// closes, so the tenant still moving never waits a window for it.  The
// window is long enough that any wait would show in the counter.
func TestDispatchByeLeavesAtOnce(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: dispatchDeadline})
	a := dialT(t, sock, "alice")
	defer a.Close()
	b := dialT(t, sock, "bob")
	defer b.Close()
	setupCoupling(t, b)

	// b streams moves through a's whole life, so while a is a member
	// every batch either of them waits in is completed by the other.
	stop := make(chan struct{})
	streamed := make(chan error, 1)
	go func() {
		for seed := int64(0); ; seed++ {
			select {
			case <-stop:
				streamed <- nil
				return
			default:
			}
			if _, err := b.Move(1, OpMove, seed); err != nil {
				streamed <- err
				return
			}
		}
	}()
	setupCoupling(t, a)
	if _, err := a.Move(1, OpMove, 1); err != nil {
		t.Fatalf("alice move: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("alice bye: %v", err)
	}
	close(stop)
	if err := <-streamed; err != nil {
		t.Fatalf("bob move: %v", err)
	}

	// a's reclaim close may still be queued; either way it carries the
	// leave mark, so b's next move completes its batch or ships alone.
	if _, err := b.Move(1, OpMove, 2); err != nil {
		t.Fatalf("bob move after alice left: %v", err)
	}
	if n := srv.Stats()["serve_batch_window_expired_total"]; n != 0 {
		t.Errorf("window expired %v times, want 0: the departed tenant cost a wait", n)
	}
}
