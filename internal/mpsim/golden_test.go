package mpsim

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"testing"
)

// fingerprint is everything a run reports that the scheduler's event
// order decides.  testdata/serial_fingerprints.json holds the values
// the serial loop (World.schedule, deleted in PR 14) produced at the
// last commit that had it; the engine that replaced it must reproduce
// them at any shard count.
type fingerprint struct {
	// Timeline is the FNV-1a hash of Trace.Timeline().
	Timeline string `json:"timeline"`
	// Events is the FNV-1a hash of Trace.Events in recorded order.  One
	// shard records in execution order, which is what the serial loop
	// did; N shards merge into the canonical (time, rank) order, so only
	// the one-shard run is held to it.
	Events      string  `json:"events"`
	Makespan    float64 `json:"makespan_seconds"`
	Msgs        int64   `json:"msgs"`
	Bytes       int64   `json:"bytes"`
	Retransmits int64   `json:"retransmits"`
	Drops       int64   `json:"drops"`
}

func fingerprintOf(st *Stats) fingerprint {
	tl := fnv.New64a()
	tl.Write([]byte(st.Trace.Timeline()))
	ev := fnv.New64a()
	for _, e := range st.Trace.Events {
		fmt.Fprintln(ev, e.Time, e.Rank, e.Kind, e.Peer, e.Bytes)
	}
	return fingerprint{
		Timeline:    fmt.Sprintf("%016x", tl.Sum64()),
		Events:      fmt.Sprintf("%016x", ev.Sum64()),
		Makespan:    st.MakespanSeconds,
		Msgs:        st.TotalMsgs(),
		Bytes:       st.TotalBytes(),
		Retransmits: st.TotalRetransmits(),
		Drops:       st.TotalDrops(),
	}
}

// survivorRing is the crash-and-restart golden's body: rank 1 dies and
// comes back, rank 0 polls for its return, and the other ranks keep a
// ring going among themselves across the crash, detection and restart.
func survivorRing(p *Proc) {
	w := p.World()
	if p.Rank() == 1 {
		if p.Clock() == 0 { // the first incarnation; the restart begins later
			idleUntilKilled(p)
		}
		w.Send(0, 7, []byte("back"))
		return
	}
	ring := []int{0, 2, 3}
	me := 0
	for i, r := range ring {
		if r == p.Rank() {
			me = i
		}
	}
	buf := make([]byte, 96)
	for round := 0; round < 12; round++ {
		w.Send(ring[(me+1)%3], round, buf)
		got, _ := w.Recv(ring[(me+2)%3], round)
		p.ChargeMemOps(len(got))
		p.SleepUntil(p.Clock() + 2e-3)
	}
	for p.Rank() == 0 {
		_, err := recvTimeout(w, 1, 7, 0)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrPeerDead) {
			panic(err)
		}
		p.SleepUntil(p.Clock() + 5e-3)
	}
}

// perLink gives every directed link its own seeded fault stream, so a
// transmission's fate does not depend on the order in which shards
// interleave their sends (the same rule faultsim.Profile follows).
type perLink struct {
	seed  uint64
	links map[linkKey]*seeded
}

func (f *perLink) Decide(from, to, attempt, bytes int, now float64) FaultDecision {
	k := linkKey{from, to}
	s := f.links[k]
	if s == nil {
		s = lossyInjector(f.seed + uint64(from)<<20 + uint64(to))
		f.links[k] = s
	}
	return s.Decide(from, to, attempt, bytes, now)
}

func lossyReliable(cfg Config) Config {
	cfg.Fault = &perLink{seed: 99, links: make(map[linkKey]*seeded)}
	cfg.Reliable = true
	return cfg
}

// goldenConfigs are small runs the figure10_trace.json golden does not
// reach.  Each call builds a fresh Config (fault injectors are
// stateful).
var goldenConfigs = map[string]func() Config{
	"ring-sp2":           ringConfig,
	"lossy-reliable-sp2": func() Config { return lossyReliable(ringConfig()) },
	// Zero latency floor: no lookahead to shard on, and retransmit
	// timers land arbitrarily close behind the process that armed them.
	"lossy-reliable-ideal": func() Config {
		cfg := ringConfig()
		cfg.Machine = Ideal()
		return lossyReliable(cfg)
	},
	"crash-restart-sp2": func() Config {
		return Config{
			Machine:  SP2(),
			Crash:    testPlan{{Rank: 1, At: 0.005, RestartAt: 0.02}},
			Programs: []ProgramSpec{{Name: "spmd", Procs: 4, ProcsPerNode: 1, Body: survivorRing}},
			Trace:    true,
		}
	},
}

// retiredGoldens are entries the serial loop recorded for features
// since deleted; the file stays as it was recorded.
var retiredGoldens = map[string]string{
	"join-sp2": "elastic scale-out (mpsim join plans) was deleted",
}

// TestSerialLoopFingerprints holds the one engine to the deleted serial
// loop's recorded behaviour, run as one inline shard and as four.
func TestSerialLoopFingerprints(t *testing.T) {
	raw, err := os.ReadFile("testdata/serial_fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]fingerprint
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(goldenConfigs)+len(retiredGoldens) {
		t.Fatalf("golden file has %d entries, want %d", len(golden), len(goldenConfigs)+len(retiredGoldens))
	}
	for name, mk := range goldenConfigs {
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		for _, shards := range []int{1, 4} {
			pinShards(t, shards)
			w, err := newWorld(mk())
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprintOf(w.run())
			// Every message is a payload, so a drained pool means every
			// reference taken anywhere in the run was given back.
			if lp, ls := w.pool.LivePayloads(), w.pool.LiveSegments(); lp != 0 || ls != 0 {
				t.Errorf("%s at Shards=%d: data plane did not drain: %d payloads, %d segments live", name, shards, lp, ls)
			}
			if shards > 1 {
				got.Events = want.Events
			}
			if got != want {
				t.Errorf("%s at Shards=%d:\n got %+v\nwant %+v", name, shards, got, want)
			}
		}
	}
}
