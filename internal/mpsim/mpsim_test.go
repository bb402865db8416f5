package mpsim

import (
	"fmt"
	"strings"
	"testing"

	"metachaos/internal/bufpool"
)

func TestPingPong(t *testing.T) {
	var got string
	RunSPMD(Ideal(), 2, func(p *Proc) {
		c := p.Comm()
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("ping"))
			data, src := c.Recv(1, 8)
			got = fmt.Sprintf("%s from %d", data, src)
		} else {
			data, _ := c.Recv(0, 7)
			if string(data) != "ping" {
				t.Errorf("rank 1 got %q, want ping", data)
			}
			c.Send(0, 8, []byte("pong"))
		}
	})
	if got != "pong from 1" {
		t.Errorf("got %q, want %q", got, "pong from 1")
	}
}

func TestSendIsBuffered(t *testing.T) {
	// Two processes both send before receiving; with buffered sends this
	// must complete rather than deadlock.
	RunSPMD(Ideal(), 2, func(p *Proc) {
		c := p.Comm()
		other := 1 - c.Rank()
		c.Send(other, 1, []byte{byte(c.Rank())})
		data, _ := c.Recv(other, 1)
		if int(data[0]) != other {
			t.Errorf("rank %d received %d, want %d", c.Rank(), data[0], other)
		}
	})
}

func TestMessageOrderingPerSourceAndTag(t *testing.T) {
	RunSPMD(Ideal(), 2, func(p *Proc) {
		c := p.Comm()
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 5, []byte{byte(i)})
			}
		} else {
			for i := 0; i < 10; i++ {
				data, _ := c.Recv(0, 5)
				if int(data[0]) != i {
					t.Fatalf("message %d arrived out of order: got %d", i, data[0])
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	RunSPMD(Ideal(), 2, func(p *Proc) {
		c := p.Comm()
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("a"))
			c.Send(1, 2, []byte("b"))
		} else {
			// Receive in reverse tag order.
			b, _ := c.Recv(0, 2)
			a, _ := c.Recv(0, 1)
			if string(a) != "a" || string(b) != "b" {
				t.Errorf("tag matching failed: a=%q b=%q", a, b)
			}
		}
	})
}

func TestAnySource(t *testing.T) {
	RunSPMD(Ideal(), 4, func(p *Proc) {
		if p.Rank() == 0 {
			seen := make(map[int]bool)
			for i := 0; i < 3; i++ {
				data, src := p.Recv(AnySource, 3)
				if int(data[0]) != src {
					t.Errorf("payload %d does not match source %d", data[0], src)
				}
				seen[src] = true
			}
			if len(seen) != 3 {
				t.Errorf("saw %d distinct sources, want 3", len(seen))
			}
		} else {
			p.Send(0, 3, []byte{byte(p.WorldRank())})
		}
	})
}

func TestSelfSend(t *testing.T) {
	RunSPMD(Ideal(), 1, func(p *Proc) {
		p.Send(0, 9, []byte("self"))
		data, src := p.Recv(0, 9)
		if string(data) != "self" || src != 0 {
			t.Errorf("self send got %q from %d", data, src)
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	RunSPMD(Ideal(), 2, func(p *Proc) {
		c := p.Comm()
		if c.Rank() == 0 {
			buf := []byte{1}
			c.Send(1, 1, buf)
			buf[0] = 99 // must not affect the in-flight message
			c.Barrier()
		} else {
			c.Barrier()
			data, _ := c.Recv(0, 1)
			if data[0] != 1 {
				t.Errorf("message mutated after send: got %d", data[0])
			}
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	var clocks [4]float64
	RunSPMD(SP2(), 4, func(p *Proc) {
		if p.Rank() == 2 {
			p.Charge(1.0) // one slow process
		}
		p.Comm().Barrier()
		clocks[p.Rank()] = p.Clock()
	})
	for r, c := range clocks {
		if c < 1.0 {
			t.Errorf("rank %d left barrier at %.6f, before the slow process entered", r, c)
		}
	}
}

func TestBcast(t *testing.T) {
	RunSPMD(Ideal(), 7, func(p *Proc) {
		c := p.Comm()
		var in []byte
		if c.Rank() == 3 {
			in = []byte("payload")
		}
		out := c.Bcast(3, in)
		if string(out) != "payload" {
			t.Errorf("rank %d got %q", c.Rank(), out)
		}
	})
}

// The broadcast tree forwards one payload by reference, but what Bcast
// returns is private to each member: a member scribbling on its result
// the moment it has it (while members further down the tree have yet to
// receive), or the root on the buffer it passed in, must not be seen by
// anyone else.
func TestBcastResultsArePrivate(t *testing.T) {
	const msg = "shared down the tree"
	for _, n := range []int{1, 2, 5, 8} {
		root := 1 % n
		RunSPMD(SP2(), n, func(p *Proc) {
			c := p.Comm()
			var in []byte
			if c.Rank() == root {
				in = []byte(msg)
			}
			out := c.Bcast(root, in)
			if string(out) != msg {
				t.Errorf("n=%d rank %d got %q", n, c.Rank(), out)
			}
			for i := range out {
				out[i] = byte(c.Rank())
			}
			for i := range in {
				in[i] = 'x'
			}
			if got := c.AllreduceInt64(OpSum, int64(len(out))); got != int64(n*len(msg)) {
				t.Errorf("n=%d rank %d: allreduce after bcast = %d", n, c.Rank(), got)
			}
		})
	}
}

func TestGatherAndAllgather(t *testing.T) {
	RunSPMD(Ideal(), 5, func(p *Proc) {
		c := p.Comm()
		mine := []byte{byte(c.Rank() * 10)}
		parts := c.Gather(2, mine)
		if c.Rank() == 2 {
			for i, part := range parts {
				if len(part) != 1 || int(part[0]) != i*10 {
					t.Errorf("gather part %d = %v", i, part)
				}
			}
		} else if parts != nil {
			t.Errorf("non-root rank %d got gather result", c.Rank())
		}
		all := c.Allgather(mine)
		for i, part := range all {
			if len(part) != 1 || int(part[0]) != i*10 {
				t.Errorf("rank %d allgather part %d = %v", c.Rank(), i, part)
			}
		}
	})
}

// TestAlltoall runs two exchanges, the second into the slots the first
// returned: each lands its parts in the kept storage, and every pooled
// segment the exchanges sent is back in the pool after the run.
func TestAlltoall(t *testing.T) {
	var pool *bufpool.Pool
	RunSPMD(Ideal(), 4, func(p *Proc) {
		c := p.Comm()
		bufs := make([][]byte, 4)
		for i := range bufs {
			bufs[i] = []byte{byte(c.Rank()), byte(i), 0}
		}
		slots := c.Alltoall(bufs, nil)
		kept := make([]*byte, len(slots))
		for i := range slots {
			kept[i] = &slots[i][0]
			bufs[i] = bufs[i][:2]
		}
		got := c.Alltoall(bufs, slots)
		for i, buf := range got {
			if len(buf) != 2 || int(buf[0]) != i || int(buf[1]) != c.Rank() {
				t.Errorf("rank %d from %d: %v", c.Rank(), i, buf)
			}
			if &buf[0] != kept[i] {
				t.Errorf("rank %d from %d: the part did not land in the kept slot", c.Rank(), i)
			}
		}
		if p.Rank() == 0 {
			pool = p.BufPool()
		}
	})
	if lp, ls := pool.LivePayloads(), pool.LiveSegments(); lp != 0 || ls != 0 {
		t.Errorf("after the run %d payloads and %d segments are live", lp, ls)
	}
}

func TestAllreduce(t *testing.T) {
	RunSPMD(Ideal(), 6, func(p *Proc) {
		c := p.Comm()
		sum := c.AllreduceInt64(OpSum, int64(c.Rank()))
		if sum != 15 {
			t.Errorf("rank %d: sum=%d want 15", c.Rank(), sum)
		}
		max := c.AllreduceFloat64(OpMax, float64(c.Rank()))
		if max != 5 {
			t.Errorf("rank %d: max=%g want 5", c.Rank(), max)
		}
		min := c.AllreduceInt64(OpMin, int64(c.Rank()+3))
		if min != 3 {
			t.Errorf("rank %d: min=%d want 3", c.Rank(), min)
		}
	})
}

func TestSubCommunicator(t *testing.T) {
	RunSPMD(Ideal(), 6, func(p *Proc) {
		c := p.Comm()
		evens := c.Sub([]int{0, 2, 4})
		if r, ok := evens.rankOf(c.WorldRank(4)); !ok || r != 2 {
			t.Errorf("rankOf(world rank of 4) = %d, %v; want 2, true", r, ok)
		}
		if _, ok := evens.rankOf(c.WorldRank(1)); ok {
			t.Error("rankOf found a world rank outside the subcomm")
		}
		if c.Rank()%2 == 0 {
			if evens.Rank() < 0 {
				t.Fatalf("rank %d should be in the even subcomm", c.Rank())
			}
			sum := evens.AllreduceInt64(OpSum, int64(c.Rank()))
			if sum != 6 {
				t.Errorf("even subcomm sum=%d want 6", sum)
			}
		} else if evens.Rank() >= 0 {
			t.Errorf("odd rank %d claims membership in even subcomm", c.Rank())
		}
	})
}

func TestTwoPrograms(t *testing.T) {
	// A producer program feeds a consumer program through world ranks.
	var sum int
	Run(Config{
		Machine: Ideal(),
		Programs: []ProgramSpec{
			{Name: "producer", Procs: 2, Body: func(p *Proc) {
				w := p.World()
				// Producer world ranks are 0,1; consumers are 2,3.
				w.Send(2+p.Rank(), 4, []byte{byte(10 * (p.Rank() + 1))})
			}},
			{Name: "consumer", Procs: 2, Body: func(p *Proc) {
				w := p.World()
				data, _ := w.Recv(p.Rank(), 4)
				got := p.Comm().AllreduceInt64(OpSum, int64(data[0]))
				if p.Rank() == 0 {
					sum = int(got)
				}
			}},
		},
	})
	if sum != 30 {
		t.Errorf("consumer sum=%d want 30", sum)
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	run := func() (float64, int64) {
		st := RunSPMD(SP2(), 8, func(p *Proc) {
			c := p.Comm()
			data := make([]byte, 1024*(p.Rank()+1))
			all := c.Alltoall(makeBufs(c.Size(), data), nil)
			_ = all
			c.Barrier()
			p.ChargeFlops(1000 * p.Rank())
			c.Bcast(0, data)
		})
		return st.MakespanSeconds, st.TotalBytes()
	}
	t1, b1 := run()
	for i := 0; i < 3; i++ {
		t2, b2 := run()
		if t1 != t2 || b1 != b2 {
			t.Fatalf("run %d differs: time %v vs %v, bytes %d vs %d", i, t1, t2, b1, b2)
		}
	}
}

func makeBufs(n int, data []byte) [][]byte {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = data
	}
	return bufs
}

func TestVirtualTimeAdvancesWithTraffic(t *testing.T) {
	small := RunSPMD(SP2(), 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, make([]byte, 10))
		} else {
			p.Recv(0, 1)
		}
	})
	large := RunSPMD(SP2(), 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, make([]byte, 10*1024*1024))
		} else {
			p.Recv(0, 1)
		}
	})
	if large.MakespanSeconds <= small.MakespanSeconds {
		t.Errorf("10MB transfer (%.6fs) not slower than 10B (%.6fs)",
			large.MakespanSeconds, small.MakespanSeconds)
	}
	// 10MB at 35MB/s should be ~0.29s.
	if large.MakespanSeconds < 0.2 || large.MakespanSeconds > 0.5 {
		t.Errorf("10MB transfer took %.3fs, want ~0.29s", large.MakespanSeconds)
	}
}

func TestNodeLinkContention(t *testing.T) {
	// Four senders on one node sharing a link must take longer than four
	// senders on separate nodes.
	body := func(p *Proc) {
		if p.Rank() < 4 {
			p.Send(p.World().WorldRank(4+p.Rank()), 1, make([]byte, 1<<20))
		} else {
			p.Recv(AnySource, 1)
		}
	}
	shared := Run(Config{
		Machine: AlphaFarmATM(),
		Programs: []ProgramSpec{
			{Name: "p", Procs: 8, ProcsPerNode: 4, Body: body},
		},
	})
	separate := Run(Config{
		Machine: AlphaFarmATM(),
		Programs: []ProgramSpec{
			{Name: "p", Procs: 8, ProcsPerNode: 1, Body: body},
		},
	})
	if shared.MakespanSeconds <= separate.MakespanSeconds {
		t.Errorf("shared-link run (%.4fs) not slower than separate nodes (%.4fs)",
			shared.MakespanSeconds, separate.MakespanSeconds)
	}
}

func TestStatsCountMessages(t *testing.T) {
	st := Run(Config{Machine: Ideal(), Trace: true, Programs: []ProgramSpec{{Name: "spmd", Procs: 3, Body: func(p *Proc) {
		c := p.Comm()
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 100))
			c.Send(2, 1, make([]byte, 50))
		} else {
			c.Recv(0, 1)
		}
	}}}})
	if st.TotalMsgs() != 2 {
		t.Errorf("TotalMsgs=%d want 2", st.TotalMsgs())
	}
	if st.TotalBytes() != 150 {
		t.Errorf("TotalBytes=%d want 150", st.TotalBytes())
	}
	var got int
	for _, e := range st.Trace.Events {
		if e.Kind == EvSend && e.Rank == 0 && e.Peer == 1 {
			got += e.Bytes
		}
	}
	if got != 100 {
		t.Errorf("pair 0->1 bytes=%d want 100", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	RunSPMD(Ideal(), 2, func(p *Proc) {
		p.Recv(1-p.Rank(), 1) // both wait forever
	})
}

func TestBodyPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	RunSPMD(Ideal(), 3, func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
		p.Comm().Barrier()
	})
}

func TestInvalidConfig(t *testing.T) {
	cases := []Config{
		{},
		{Machine: Ideal()},
		{Machine: Ideal(), Programs: []ProgramSpec{{Name: "x", Procs: 0, Body: func(*Proc) {}}}},
		{Machine: Ideal(), Programs: []ProgramSpec{{Name: "x", Procs: 1}}},
		{Machine: &Machine{Name: "bad", Bandwidth: -1}, Programs: []ProgramSpec{{Name: "x", Procs: 1, Body: func(*Proc) {}}}},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			Run(cfg)
		}()
	}
}

func TestMachineProfilesValidate(t *testing.T) {
	for _, m := range []*Machine{SP2(), AlphaFarmATM(), Ideal()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestNodePlacement(t *testing.T) {
	nodes := make(map[int]int)
	Run(Config{
		Machine: Ideal(),
		Programs: []ProgramSpec{
			{Name: "a", Procs: 4, ProcsPerNode: 2, Body: func(p *Proc) {
				nodes[p.WorldRank()] = p.node.id
			}},
			{Name: "b", Procs: 2, ProcsPerNode: 1, Body: func(p *Proc) {
				nodes[p.WorldRank()] = p.node.id
			}},
		},
	})
	want := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 3}
	for r, n := range want {
		if nodes[r] != n {
			t.Errorf("world rank %d on node %d, want %d", r, nodes[r], n)
		}
	}
}

func TestChargeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative charge")
		}
	}()
	RunSPMD(Ideal(), 1, func(p *Proc) {
		p.Charge(-1)
	})
}

// Two programs' union group — World().Sub of both programs' ranks, as
// core.NewCoupling builds it — runs collectives across the program
// boundary.
func TestMergedComm(t *testing.T) {
	union := func(p *Proc) *Comm {
		return p.World().Sub(append(p.ProgramRanks("a"), p.ProgramRanks("b")...))
	}
	Run(Config{
		Machine: Ideal(),
		Programs: []ProgramSpec{
			{Name: "a", Procs: 2, Body: func(p *Proc) {
				m := union(p)
				if m.Size() != 4 {
					t.Errorf("merged size=%d want 4", m.Size())
				}
				sum := m.AllreduceInt64(OpSum, 1)
				if sum != 4 {
					t.Errorf("merged allreduce=%d want 4", sum)
				}
			}},
			{Name: "b", Procs: 2, Body: func(p *Proc) {
				m := union(p)
				sum := m.AllreduceInt64(OpSum, 1)
				if sum != 4 {
					t.Errorf("merged allreduce=%d want 4", sum)
				}
			}},
		},
	})
}

func TestMachineValidateBranches(t *testing.T) {
	good := Ideal()
	bad := []func(m *Machine){
		func(m *Machine) { m.Latency = -1 },
		func(m *Machine) { m.Bandwidth = 0 },
		func(m *Machine) { m.NodeLinkBandwidth = -1 },
		func(m *Machine) { m.SendOverhead = -1 },
		func(m *Machine) { m.LocalCopyBandwidth = 0 },
		func(m *Machine) { m.FlopTime = -1 },
	}
	for i, mutate := range bad {
		m := *good
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestProcAccessors(t *testing.T) {
	Run(Config{
		Machine: Ideal(),
		Programs: []ProgramSpec{
			{Name: "a", Procs: 2, Body: func(p *Proc) {
				if p.Size() != 2 || p.WorldSize() != 3 || p.Program() != "a" {
					t.Errorf("accessors: size=%d world=%d prog=%q", p.Size(), p.WorldSize(), p.Program())
				}
				if p.Comm().Proc() != p {
					t.Error("Comm().Proc() mismatch")
				}
				if p.ProgramRanks("nope") != nil {
					t.Error("unknown program returned ranks")
				}
			}},
			{Name: "b", Procs: 1, Body: func(p *Proc) {}},
		},
	})
}

func TestReduceOpsMinAndFloatMin(t *testing.T) {
	RunSPMD(Ideal(), 4, func(p *Proc) {
		c := p.Comm()
		if got := c.AllreduceFloat64(OpMin, float64(10-p.Rank())); got != 7 {
			t.Errorf("float min=%g", got)
		}
	})
}

func TestNonMemberCommPanics(t *testing.T) {
	RunSPMD(Ideal(), 2, func(p *Proc) {
		sub := p.Comm().Sub([]int{0})
		if p.Rank() == 1 {
			defer func() {
				if recover() == nil {
					t.Error("non-member collective did not panic")
				}
			}()
			sub.Barrier()
		}
	})
}

func TestUserTagBoundsPanics(t *testing.T) {
	RunSPMD(Ideal(), 1, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("oversized tag accepted")
			}
		}()
		p.Comm().Send(0, 1<<21, nil)
	})
}

func TestKindStringsViaStats(t *testing.T) {
	if EvSend.String() != "send" || EvRecv.String() != "recv" {
		t.Error("event kind strings")
	}
	if EventKind(9).String() == "" {
		t.Error("unknown event kind string empty")
	}
}
