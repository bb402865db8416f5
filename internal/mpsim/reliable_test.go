package mpsim

import (
	"errors"
	"fmt"
	"testing"
)

// injector adapts a func to FaultInjector for in-package tests.
type injector func(from, to, attempt, bytes int, now float64) FaultDecision

func (f injector) Decide(from, to, attempt, bytes int, now float64) FaultDecision {
	return f(from, to, attempt, bytes, now)
}

// seeded is a tiny deterministic rate-based injector used by the
// in-package tests (the full profile machinery lives in faultsim,
// which cannot be imported here).
type seeded struct {
	seed                      uint64
	drop, dup, corrupt, delay float64
	jitter                    float64
	calls                     uint64
	deadFrom, deadTo          int     // permanent partition cut, -1 to disable
	deadStart, deadEnd        float64 // partition window
}

func (s *seeded) roll(salt uint64) float64 {
	z := s.seed ^ s.calls*0x9e3779b97f4a7c15 ^ salt*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

func (s *seeded) Decide(from, to, attempt, bytes int, now float64) FaultDecision {
	s.calls++
	d := FaultDecision{CorruptBit: -1}
	if s.deadEnd > s.deadStart && now >= s.deadStart && now < s.deadEnd &&
		((from == s.deadFrom && to == s.deadTo) || (from == s.deadTo && to == s.deadFrom)) {
		d.Drop = true
		return d
	}
	if s.roll(1) < s.drop {
		d.Drop = true
		return d
	}
	if attempt >= 0 {
		d.Duplicate = s.roll(2) < s.dup
		if bytes > 0 && s.roll(3) < s.corrupt {
			d.CorruptBit = int(uint(s.seed+s.calls) % uint(bytes*8))
		}
	}
	if s.roll(4) < s.delay {
		d.ExtraDelay = s.jitter * s.roll(5)
	}
	return d
}

func lossyInjector(seed uint64) *seeded {
	return &seeded{seed: seed, drop: 0.08, dup: 0.04, corrupt: 0.02, delay: 0.25, jitter: 3e-3, deadFrom: -1, deadTo: -1}
}

// payload builds a deterministic test payload.
func payload(from, to, k, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(from*31 + to*17 + k*7 + i)
	}
	return b
}

// Under drops, duplicates, corruption and reordering, the reliable
// transport must deliver every message intact, in per-link order, and
// the recovery effort must show up in the stats.
func TestReliableAllToAllUnderFaults(t *testing.T) {
	const procs, msgs, size = 4, 30, 256
	st := Run(Config{
		Machine:  SP2(),
		Reliable: true,
		Fault:    lossyInjector(1234),
		Programs: []ProgramSpec{{Name: "spmd", Procs: procs, Body: func(p *Proc) {
			me := p.Rank()
			for k := 0; k < msgs; k++ {
				for to := 0; to < procs; to++ {
					if to != me {
						p.Send(to, 9, payload(me, to, k, size))
					}
				}
			}
			for k := 0; k < msgs; k++ {
				for from := 0; from < procs; from++ {
					if from == me {
						continue
					}
					data, _ := p.Recv(from, 9)
					want := payload(from, me, k, size)
					if len(data) != len(want) {
						t.Errorf("rank %d msg %d from %d: %d bytes, want %d", me, k, from, len(data), len(want))
						return
					}
					for i := range data {
						if data[i] != want[i] {
							t.Errorf("rank %d msg %d from %d: byte %d = %d, want %d", me, k, from, i, data[i], want[i])
							return
						}
					}
				}
			}
		}}},
	})
	if st.TotalDrops() == 0 {
		t.Error("fault injection produced no drops; test exercises nothing")
	}
	if st.TotalRetransmits() == 0 {
		t.Error("drops occurred but no retransmissions were recorded")
	}
	var corrupt int64
	for i := range st.PerRank {
		corrupt += st.PerRank[i].CorruptDiscarded
	}
	if corrupt == 0 {
		t.Error("corruption rate was configured but no corrupt deliveries were discarded")
	}
}

// Collectives ride the same transport: a barrier, broadcast and
// allreduce must complete correctly under faults.
func TestReliableCollectivesUnderFaults(t *testing.T) {
	const procs = 5
	Run(Config{
		Machine:  SP2(),
		Reliable: true,
		Fault:    lossyInjector(99),
		Programs: []ProgramSpec{{Name: "spmd", Procs: procs, Body: func(p *Proc) {
			c := p.Comm()
			for iter := 0; iter < 5; iter++ {
				c.Barrier()
				got := c.Bcast(0, []byte{1, 2, 3, byte(iter)})
				if len(got) != 4 || got[3] != byte(iter) {
					t.Errorf("rank %d iter %d: bad bcast payload %v", p.Rank(), iter, got)
				}
				sum := c.AllreduceFloat64(OpSum, float64(p.Rank()))
				if want := float64(procs*(procs-1)) / 2; sum != want {
					t.Errorf("rank %d iter %d: allreduce %g, want %g", p.Rank(), iter, sum, want)
				}
			}
		}}},
	})
}

// Same seed, same virtual-time outcome; the fault subsystem must not
// break the simulator's determinism.
func TestReliableDeterminism(t *testing.T) {
	run := func(seed uint64) (float64, int64, int64) {
		st := Run(Config{
			Machine:  SP2(),
			Reliable: true,
			Fault:    lossyInjector(seed),
			Programs: []ProgramSpec{{Name: "spmd", Procs: 4, Body: func(p *Proc) {
				c := p.Comm()
				for k := 0; k < 10; k++ {
					c.Barrier()
					right := (p.Rank() + 1) % 4
					left := (p.Rank() + 3) % 4
					p.Send(p.Comm().WorldRank(right), 3, payload(p.Rank(), right, k, 128))
					p.Recv(p.Comm().WorldRank(left), 3)
				}
			}}},
		})
		return st.MakespanSeconds, st.TotalRetransmits(), st.TotalDrops()
	}
	m1, r1, d1 := run(777)
	m2, r2, d2 := run(777)
	if m1 != m2 || r1 != r2 || d1 != d2 {
		t.Errorf("same seed diverged: makespan %g vs %g, retransmits %d vs %d, drops %d vs %d",
			m1, m2, r1, r2, d1, d2)
	}
	m3, _, _ := run(778)
	if m1 == m3 {
		t.Log("different seed produced identical makespan (possible but unlikely)")
	}
}

// A receive for a message nobody sends must surface ErrTimeout through
// WithTimeout instead of deadlocking the run.
func TestWithTimeoutRecv(t *testing.T) {
	var gotErr error
	var tAfter float64
	Run(Config{
		Machine: SP2(),
		Programs: []ProgramSpec{{Name: "spmd", Procs: 2, Body: func(p *Proc) {
			if p.Rank() == 1 {
				gotErr = p.WithTimeout(0.25, func() { p.Recv(0, 5) })
				tAfter = p.Clock()
				// The process must remain usable after the timeout.
				p.Send(0, 6, []byte("still alive"))
			} else {
				data, _ := p.Recv(1, 6)
				if string(data) != "still alive" {
					t.Errorf("post-timeout send corrupted: %q", data)
				}
			}
		}}},
	})
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", gotErr)
	}
	var ne *NetError
	if !errors.As(gotErr, &ne) || ne.Rank != 1 {
		t.Errorf("error not a *NetError with rank 1: %#v", gotErr)
	}
	if tAfter < 0.25 {
		t.Errorf("clock %g after timeout, want >= deadline 0.25", tAfter)
	}
}

// WaitanyTimeout must return ErrTimeout when none of the posted
// receives can complete, leaving the requests cancellable.
func TestWaitanyTimeout(t *testing.T) {
	var gotErr error
	Run(Config{
		Machine: SP2(),
		Programs: []ProgramSpec{{Name: "spmd", Procs: 3, Body: func(p *Proc) {
			c := p.Comm()
			switch p.Rank() {
			case 0:
				reqs := []*Request{c.Irecv(1, 7), c.Irecv(2, 7)}
				idx, err := WaitanyTimeout(reqs, 0.1)
				if err == nil {
					// Rank 1 sends eventually, but only after our
					// deadline — the first wait must fail.
					t.Errorf("WaitanyTimeout completed (idx %d) before any send", idx)
				}
				gotErr = err
				for _, r := range reqs {
					r.Cancel()
					if !r.Done() {
						t.Error("Cancel did not complete the request")
					}
				}
				c.Barrier()
			default:
				// Arrive at the barrier long after rank 0's deadline.
				p.Charge(0.5)
				c.Barrier()
			}
		}}},
	})
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", gotErr)
	}
}

// When the reliable transport exhausts its retransmission budget on a
// permanently dead link, the blocked receiver observes
// ErrPeerUnreachable instead of hanging forever.
func TestPeerUnreachable(t *testing.T) {
	inj := &seeded{seed: 4, deadFrom: 0, deadTo: 1, deadStart: 0, deadEnd: 1e18}
	var gotErr error
	st := Run(Config{
		Machine:  SP2(),
		Fault:    inj,
		Reliable: true,
		Trace:    true,
		Programs: []ProgramSpec{{Name: "spmd", Procs: 2, Body: func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, 2, []byte("into the void"))
			} else {
				gotErr = p.WithTimeout(0, func() { p.Recv(0, 2) })
			}
		}}},
	})
	if !errors.Is(gotErr, ErrPeerUnreachable) {
		t.Fatalf("got %v, want ErrPeerUnreachable", gotErr)
	}
	var ne *NetError
	if !errors.As(gotErr, &ne) || ne.Peer != 0 {
		t.Errorf("error does not name peer 0: %#v", gotErr)
	}
	if st.PerRank[0].FailedSends == 0 {
		t.Error("sender recorded no failed sends")
	}
	if st.PerRank[0].Retransmits != maxRetries {
		t.Errorf("sender retransmitted %d times, want exactly maxRetries=%d", st.PerRank[0].Retransmits, maxRetries)
	}
	// The abandonment is reported with the size of the message it gave up
	// on, read before the packet's payload reference is dropped.
	for _, e := range st.Trace.Events {
		if e.Kind == EvPeerFail && e.Bytes != len("into the void") {
			t.Errorf("abandoned send reported as %d bytes, want %d", e.Bytes, len("into the void"))
		}
	}
}

// A transient partition must heal: messages sent during the window are
// recovered by retransmission once it lifts.
func TestTransientPartitionHeals(t *testing.T) {
	inj := &seeded{seed: 8, deadFrom: 0, deadTo: 1, deadStart: 0, deadEnd: 0.05}
	st := Run(Config{
		Machine:  SP2(),
		Fault:    inj,
		Reliable: true,
		Programs: []ProgramSpec{{Name: "spmd", Procs: 2, Body: func(p *Proc) {
			if p.Rank() == 0 {
				for k := 0; k < 5; k++ {
					p.Send(1, 2, payload(0, 1, k, 64))
				}
			} else {
				for k := 0; k < 5; k++ {
					data, _ := p.Recv(0, 2)
					want := payload(0, 1, k, 64)
					for i := range data {
						if data[i] != want[i] {
							t.Fatalf("msg %d corrupted after partition heal", k)
						}
					}
				}
			}
		}}},
	})
	if st.TotalDrops() == 0 {
		t.Error("partition window dropped nothing")
	}
	if st.MakespanSeconds < 0.05 {
		t.Errorf("makespan %g: recovery cannot finish before the partition lifts at 0.05", st.MakespanSeconds)
	}
}

// Without the reliable transport, injected faults are observable raw:
// a dropped message never arrives (surfacing as ErrTimeout under a
// deadline) and the drop is counted.
func TestUnreliableDropsObservable(t *testing.T) {
	alwaysDrop := injector(func(from, to, attempt, bytes int, now float64) FaultDecision {
		return FaultDecision{Drop: true, CorruptBit: -1}
	})
	var gotErr error
	st := Run(Config{
		Machine: SP2(),
		Fault:   alwaysDrop,
		Programs: []ProgramSpec{{Name: "spmd", Procs: 2, Body: func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, 1, []byte("lost"))
			} else {
				_, gotErr = recvTimeout(p.Comm(), 0, 1, 0.05)
			}
		}}},
	})
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", gotErr)
	}
	if st.TotalDrops() != 1 {
		t.Errorf("drops = %d, want 1", st.TotalDrops())
	}
	if st.PerRank[1].Timeouts != 1 {
		t.Errorf("receiver timeouts = %d, want 1", st.PerRank[1].Timeouts)
	}
}

// The fault path must leave self-sends and same-node (shared-memory)
// messages untouched.
func TestLoopbackBypassesFaults(t *testing.T) {
	alwaysDrop := injector(func(from, to, attempt, bytes int, now float64) FaultDecision {
		return FaultDecision{Drop: true, CorruptBit: -1}
	})
	Run(Config{
		Machine: AlphaFarmATM(),
		Fault:   alwaysDrop,
		Programs: []ProgramSpec{{Name: "spmd", Procs: 4, ProcsPerNode: 4, Body: func(p *Proc) {
			// All four processes share one node: every message is
			// shared-memory and must survive an always-drop network.
			right := (p.Rank() + 1) % 4
			left := (p.Rank() + 3) % 4
			p.Send(p.Comm().WorldRank(right), 1, []byte{byte(p.Rank())})
			data, _ := p.Recv(p.Comm().WorldRank(left), 1)
			if data[0] != byte(left) {
				t.Errorf("rank %d: got %d from left neighbour, want %d", p.Rank(), data[0], left)
			}
		}}},
	})
}

// The trace must attribute drops and retransmissions to the faulty
// link.
func TestLinkFaultAttribution(t *testing.T) {
	dropFirst := injector(func(from, to, attempt, bytes int, now float64) FaultDecision {
		// Drop every first attempt on 0->1 only; retries succeed.
		return FaultDecision{Drop: from == 0 && to == 1 && attempt == 0, CorruptBit: -1}
	})
	st := Run(Config{
		Machine:  SP2(),
		Fault:    dropFirst,
		Reliable: true,
		Trace:    true,
		Programs: []ProgramSpec{{Name: "spmd", Procs: 3, Body: func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, 1, []byte("via lossy link"))
				p.Send(2, 1, []byte("via clean link"))
			} else {
				p.Recv(0, 1)
			}
		}}},
	})
	// Drops and retransmissions per (from, to) link.
	drops, rexmits := map[[2]int]int{}, map[[2]int]int{}
	for _, e := range st.Trace.Events {
		switch e.Kind {
		case EvDrop:
			drops[[2]int{e.Rank, e.Peer}]++
		case EvRetransmit:
			rexmits[[2]int{e.Rank, e.Peer}]++
		}
	}
	lossy := [2]int{0, 1}
	if drops[lossy] == 0 || rexmits[lossy] == 0 || len(drops) != 1 || len(rexmits) != 1 {
		t.Errorf("want drops and retransmissions on 0->1 only; the trace has drops %v, retransmissions %v", drops, rexmits)
	}
}

// Reliability without fault injection must be invisible: payloads
// arrive and no recovery counters move.
func TestReliableNoFaultsIsClean(t *testing.T) {
	st := Run(Config{
		Machine:  SP2(),
		Reliable: true,
		Programs: []ProgramSpec{{Name: "spmd", Procs: 4, Body: func(p *Proc) {
			c := p.Comm()
			c.Barrier()
			right := (p.Rank() + 1) % 4
			p.Send(c.WorldRank(right), 1, payload(p.Rank(), right, 0, 512))
			left := (p.Rank() + 3) % 4
			data, _ := p.Recv(c.WorldRank(left), 1)
			want := payload(left, p.Rank(), 0, 512)
			for i := range data {
				if data[i] != want[i] {
					t.Fatalf("payload corrupted on a clean network")
				}
			}
		}}},
	})
	if n := st.TotalRetransmits(); n != 0 {
		t.Errorf("clean network recorded %d retransmits", n)
	}
	if n := st.TotalDrops(); n != 0 {
		t.Errorf("clean network recorded %d drops", n)
	}
}

// Trace events for the fault machinery must be recorded and render.
func TestFaultTraceEvents(t *testing.T) {
	st := Run(Config{
		Machine:  SP2(),
		Trace:    true,
		Fault:    lossyInjector(31),
		Reliable: true,
		Programs: []ProgramSpec{{Name: "spmd", Procs: 3, Body: func(p *Proc) {
			for k := 0; k < 20; k++ {
				right := (p.Rank() + 1) % 3
				left := (p.Rank() + 2) % 3
				p.Send(p.Comm().WorldRank(right), 1, payload(p.Rank(), right, k, 200))
				p.Recv(p.Comm().WorldRank(left), 1)
			}
		}}},
	})
	kinds := map[EventKind]int{}
	for _, e := range st.Trace.Events {
		kinds[e.Kind]++
	}
	if kinds[EvDrop] == 0 || kinds[EvRetransmit] == 0 || kinds[EvAck] == 0 {
		t.Errorf("missing fault trace events: %v", kinds)
	}
	for _, k := range []EventKind{EvDrop, EvRetransmit, EvDupDiscard, EvCorruptDiscard, EvAck, EvTimeout, EvPeerFail} {
		if s := k.String(); s == "" || s == fmt.Sprintf("EventKind(%d)", int(k)) {
			t.Errorf("EventKind %d has no name", int(k))
		}
	}
}
