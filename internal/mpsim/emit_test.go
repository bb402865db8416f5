package mpsim

import (
	"errors"
	"testing"

	"metachaos/internal/obs"
)

// ackDropCounter wraps a fault injector and counts the acknowledgements
// it loses.  The simulator judges acks with attempt -1, which is the
// only thing that tells a lost ack from a lost zero-byte message.
type ackDropCounter struct {
	inner FaultInjector
	lost  int64
}

func (a *ackDropCounter) Decide(from, to, attempt, bytes int, now float64) FaultDecision {
	d := a.inner.Decide(from, to, attempt, bytes, now)
	if attempt < 0 && d.Drop {
		a.lost++
	}
	return d
}

// emitSinks is what one emit adds to each of its sinks, per kind: the
// acting rank's counter and the obs counter.
var emitSinks = []struct {
	kind    EventKind
	rank    func(*RankStats) int64 // nil: the kind has no per-rank counter
	counter string
}{
	{kind: EvSend, counter: "mpsim.sends",
		rank: func(r *RankStats) int64 { return r.MsgsSent }},
	{kind: EvRecv, counter: "mpsim.recvs",
		rank: func(r *RankStats) int64 { return r.MsgsRecv }},
	// A lost ack is an EvDrop like any other, charged to the acker.
	{kind: EvDrop, counter: "mpsim.drops",
		rank: func(r *RankStats) int64 { return r.Drops }},
	{kind: EvRetransmit, counter: "mpsim.retransmits",
		rank: func(r *RankStats) int64 { return r.Retransmits }},
	{kind: EvDupDiscard, counter: "mpsim.dup_discards",
		rank: func(r *RankStats) int64 { return r.DupsDiscarded }},
	{kind: EvCorruptDiscard, counter: "mpsim.corrupt_discards",
		rank: func(r *RankStats) int64 { return r.CorruptDiscarded }},
	{kind: EvAck, counter: "mpsim.acks"},
	{kind: EvTimeout, counter: "mpsim.timeouts",
		rank: func(r *RankStats) int64 { return r.Timeouts }},
	{kind: EvPeerFail, counter: "mpsim.peer_fails",
		rank: func(r *RankStats) int64 { return r.FailedSends }},
	{kind: EvCrash, counter: "mpsim.crashes"},
	{kind: EvCrashDetect, counter: "mpsim.crash_detects"},
	{kind: EvRestart, counter: "mpsim.restarts"},
}

// recoveryConfig reaches the occurrences no golden workload does: both
// ways a deadline expires (while parked, and already past when about to
// park) and all three ways a send fails (link abandoned after its
// retransmissions, link already abandoned, peer detected dead).
func recoveryConfig(t *testing.T) func() Config {
	want := func(err, target error) {
		if !errors.Is(err, target) {
			t.Errorf("recovery workload: got %v, want %v", err, target)
		}
	}
	body := func(p *Proc) {
		w := p.World()
		switch p.Rank() {
		case 0:
			w.Send(1, 1, []byte("into the void"))
			p.SleepUntil(p.Clock() + 200) // the link to rank 1 is abandoned (16 doubling timeouts, ~150 s), rank 3's crash detected
			w.Send(1, 1, []byte("dropped at the source"))
			want(p.WithTimeout(0, func() { w.Send(3, 1, nil) }), ErrPeerDead)
		case 1:
			_, err := recvTimeout(w, 0, 1, 1e-4)
			want(err, ErrTimeout)
			want(p.WithTimeout(1e-4, func() { p.Charge(1e-3); w.Recv(0, 1) }), ErrTimeout)
			want(p.WithTimeout(0, func() { w.Recv(0, 1) }), ErrPeerUnreachable)
		case 3:
			idleUntilKilled(p)
		}
	}
	return func() Config {
		return Config{
			Machine:  SP2(),
			Fault:    &seeded{deadFrom: 0, deadTo: 1, deadEnd: 1e18},
			Reliable: true,
			Crash:    testPlan{{Rank: 3, At: 1e-3}},
			Programs: []ProgramSpec{{Name: "spmd", Procs: 4, ProcsPerNode: 1, Body: body}},
			Trace:    true,
		}
	}
}

// TestEmitSinksAgree is the differential oracle for the one-emission
// rule: Stats, the trace and the obs counters are three sinks of the
// same emit calls, so over the golden workloads (and one that fails in
// the ways they do not) each must be derivable from the others — per
// rank and in total.
func TestEmitSinksAgree(t *testing.T) {
	if len(emitSinks) != len(kinds) {
		t.Fatalf("sink table has %d kinds, the simulator %d", len(emitSinks), len(kinds))
	}
	seen := make(map[EventKind]int64)
	var acksLost int64
	workloads := map[string]func() Config{"recovery": recoveryConfig(t)}
	for name, mk := range goldenConfigs {
		workloads[name] = mk
	}
	for name, mk := range workloads {
		// A tracer pins the run to one shard, so the four-shard run
		// checks Stats against the trace alone.
		for _, shards := range []int{1, 4} {
			pinShards(t, shards)
			cfg := mk()
			acks := &ackDropCounter{inner: cfg.Fault}
			if cfg.Fault != nil {
				cfg.Fault = acks
			}
			var reg *obs.Metrics
			if shards == 1 {
				cfg.Obs = obs.NewTracer()
				reg = cfg.Obs.MetricsRegistry()
			}
			st := Run(cfg)
			acksLost += acks.lost
			for _, row := range emitSinks {
				perRank := make([]int64, len(st.PerRank))
				var total, bytes int64
				for _, e := range st.Trace.Events {
					if e.Kind != row.kind {
						continue
					}
					total++
					bytes += int64(e.Bytes)
					perRank[e.Rank]++
				}
				seen[row.kind] += total
				where := func() string { return name + "/" + row.kind.String() }
				if row.rank != nil {
					for r := range st.PerRank {
						if got := row.rank(&st.PerRank[r]); got != perRank[r] {
							t.Errorf("%s shards=%d rank %d: RankStats says %d, trace has %d", where(), shards, r, got, perRank[r])
						}
					}
				}
				if reg == nil {
					continue
				}
				if got := reg.Counter(row.counter).Value(); got != total {
					t.Errorf("%s: obs counter %s = %d, trace has %d", where(), row.counter, got, total)
				}
				switch row.kind {
				case EvSend:
					if got := reg.Counter("mpsim.bytes_sent").Value(); got != bytes || bytes != st.TotalBytes() {
						t.Errorf("%s: bytes_sent counter %d, trace %d, Stats %d", where(), got, bytes, st.TotalBytes())
					}
					if got := reg.Histogram("mpsim.msg_bytes", nil).Count(); got != total {
						t.Errorf("%s: msg_bytes histogram holds %d observations, trace has %d sends", where(), got, total)
					}
				case EvRecv:
					var recvd int64
					for r := range st.PerRank {
						recvd += st.PerRank[r].BytesRecv
					}
					if got := reg.Counter("mpsim.bytes_recv").Value(); got != bytes || bytes != recvd {
						t.Errorf("%s: bytes_recv counter %d, trace %d, Stats %d", where(), got, bytes, recvd)
					}
				}
			}
		}
	}
	// The oracle is only as good as what the workloads exercise.
	for _, row := range emitSinks {
		if seen[row.kind] == 0 {
			t.Errorf("no workload produced a %v event; the oracle is vacuous for it", row.kind)
		}
	}
	if acksLost == 0 {
		t.Error("no workload lost an ack; the acker's drop went unexercised")
	}
}
