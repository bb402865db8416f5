package mpsim

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// pinShards makes every run the test starts from here on ask for n
// scheduler shards, through MPSIM_SHARDS.
func pinShards(t testing.TB, n int) {
	t.Setenv("MPSIM_SHARDS", strconv.Itoa(n))
}

// runAt runs cfg with n scheduler shards.
func runAt(t testing.TB, n int, cfg Config) *Stats {
	pinShards(t, n)
	return Run(cfg)
}

// ringBody is a multi-round neighbor exchange: every rank sends a
// payload around the ring each round and folds the received bytes into
// a running checksum charged as compute.  It exercises cross-node (and
// under sharding, cross-shard) traffic on every round.
func ringBody(rounds, bytes int) func(p *Proc) {
	return func(p *Proc) {
		buf := make([]byte, bytes)
		for i := range buf {
			buf[i] = byte(p.Rank() + i)
		}
		c := p.Comm()
		for r := 0; r < rounds; r++ {
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			c.Send(next, r, buf)
			got, _ := c.Recv(prev, r)
			p.ChargeMemOps(len(got))
			buf[0] ^= got[0]
		}
	}
}

func ringConfig() Config {
	return Config{
		Machine: SP2(),
		Programs: []ProgramSpec{
			{Name: "ring", Procs: 16, ProcsPerNode: 1, Body: ringBody(20, 256)},
		},
		Trace: true,
	}
}

// TestShardCountInvariantRing pins the engine's core property on a
// cross-shard-heavy workload: four shards advancing in parallel
// windows produce the same virtual makespan and the same trace
// timeline as one shard run inline.
func TestShardCountInvariantRing(t *testing.T) {
	one := runAt(t, 1, ringConfig())
	four := runAt(t, 4, ringConfig())
	if four.MakespanSeconds != one.MakespanSeconds {
		t.Errorf("makespan: four shards %v, one shard %v", four.MakespanSeconds, one.MakespanSeconds)
	}
	if got, want := four.Trace.Timeline(), one.Trace.Timeline(); got != want {
		t.Errorf("timelines diverge:\nfour shards:\n%s\none shard:\n%s", got, want)
	}
	if four.TotalMsgs() != one.TotalMsgs() {
		t.Errorf("msgs: four shards %d, one shard %d", four.TotalMsgs(), one.TotalMsgs())
	}
}

// TestShardedGOMAXPROCSIndependent pins the hard determinism
// invariant: with the shard count fixed, the host thread count must
// not change any virtual-time result.
func TestShardedGOMAXPROCSIndependent(t *testing.T) {
	run := func(maxprocs int) (float64, string) {
		old := runtime.GOMAXPROCS(maxprocs)
		defer runtime.GOMAXPROCS(old)
		st := runAt(t, 4, ringConfig())
		return st.MakespanSeconds, st.Trace.Timeline()
	}
	m1, t1 := run(1)
	m4, t4 := run(4)
	if m1 != m4 || t1 != t4 {
		t.Errorf("GOMAXPROCS=1 vs 4 diverged: makespan %v vs %v", m1, m4)
	}
}

// TestShardedTinyLookahead stresses the window protocol: a lookahead
// far below the machine's latency floor forces many tiny windows,
// which must not change any result.
func TestShardedTinyLookahead(t *testing.T) {
	one := runAt(t, 1, ringConfig())
	pinShards(t, 4)
	w, err := newWorld(ringConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.shards) != 4 {
		t.Fatalf("world has %d shards, want 4", len(w.shards))
	}
	w.lookahead = 1e-7 // SP2 latency is ~40us; thousands of windows
	tiny := w.run()
	if tiny.MakespanSeconds != one.MakespanSeconds {
		t.Errorf("makespan: tiny-lookahead %v, one shard %v", tiny.MakespanSeconds, one.MakespanSeconds)
	}
	if got, want := tiny.Trace.Timeline(), one.Trace.Timeline(); got != want {
		t.Error("tiny-lookahead timeline diverges from the one-shard run")
	}
}

// TestIntraShardBypass pins the local-traffic fast path: a world of
// independent per-program rings with no cross-program traffic maps
// each program into (at most) one shard, so every message should take
// the immediate-enqueue path and match the one-shard run exactly.
func TestIntraShardBypass(t *testing.T) {
	mk := func() Config {
		progs := make([]ProgramSpec, 4)
		for i := range progs {
			progs[i] = ProgramSpec{
				Name: "p" + string(rune('0'+i)), Procs: 4, ProcsPerNode: 1,
				Body: ringBody(10, 128),
			}
		}
		return Config{Machine: SP2(), Programs: progs, Trace: true}
	}
	one := runAt(t, 1, mk())
	four := runAt(t, 4, mk())
	if four.MakespanSeconds != one.MakespanSeconds {
		t.Errorf("makespan: four shards %v, one shard %v", four.MakespanSeconds, one.MakespanSeconds)
	}
	if got, want := four.Trace.Timeline(), one.Trace.Timeline(); got != want {
		t.Error("intra-shard timeline diverges from the one-shard run")
	}
}

// TestResolveShards covers the env/auto resolution ladder.
func TestResolveShards(t *testing.T) {
	w := &World{nodes: make([]*node, 16), procs: make([]*Proc, 16), machine: SP2()}
	t.Setenv("MPSIM_SHARDS", "3")
	if got := w.resolveShards(Config{}); got != 3 {
		t.Errorf("MPSIM_SHARDS=3: got %d", got)
	}
	t.Setenv("MPSIM_SHARDS", "64")
	if got := w.resolveShards(Config{}); got != 16 {
		t.Errorf("MPSIM_SHARDS=64 beyond nodes: got %d, want clamp to 16", got)
	}
	t.Setenv("MPSIM_SHARDS", "")
	// Small world, no env: one shard.
	if got := w.resolveShards(Config{}); got != 1 {
		t.Errorf("small world auto: got %d, want 1", got)
	}
	// "0" is the explicit spelling of automatic resolution.
	t.Setenv("MPSIM_SHARDS", "0")
	if got := w.resolveShards(Config{}); got != 1 {
		t.Errorf("MPSIM_SHARDS=0 on a small world: got %d, want 1 (auto)", got)
	}
}

// TestResolveShardsRejectsBadEnv pins the fail-fast contract: a
// non-integer or negative MPSIM_SHARDS panics with a clear error
// instead of being silently ignored, even on runs that would have
// had one shard anyway.
func TestResolveShardsRejectsBadEnv(t *testing.T) {
	w := &World{nodes: make([]*node, 16), procs: make([]*Proc, 16), machine: SP2()}
	expectPanic := func(env, wantSub string) {
		t.Helper()
		t.Setenv("MPSIM_SHARDS", env)
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("MPSIM_SHARDS=%q: resolveShards did not panic", env)
				return
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, wantSub) || !strings.Contains(msg, env) {
				t.Errorf("MPSIM_SHARDS=%q: panic %v, want message containing %q and the value", env, r, wantSub)
			}
		}()
		w.resolveShards(Config{})
	}
	expectPanic("four", "not an integer")
	expectPanic("3.5", "not an integer")
	expectPanic("-2", "negative shard count")
}

// TestSafeLookaheadFloor ensures the derived window is the LogGP
// latency floor plus the send overhead, that no retransmit timeout is
// shorter, and that a lone shard's window is unbounded.
func TestSafeLookaheadFloor(t *testing.T) {
	w := &World{machine: SP2()}
	want := w.machine.SendOverhead + w.machine.Latency
	if safe := w.safeLookahead(); safe != want {
		t.Errorf("safeLookahead: got %v, want %v", safe, want)
	}
	w.net = newNetLayer(w, nil, true)
	if rto := w.net.rtoFor(0); rto <= w.machine.Latency {
		t.Errorf("a zero-byte packet's RTO %v does not exceed the latency %v", rto, w.machine.Latency)
	}
	for shards, bounded := range map[int]bool{1: false, 4: true} {
		pinShards(t, shards)
		w, err := newWorld(ringConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got := !math.IsInf(w.lookahead, 1); got != bounded {
			t.Errorf("%d shards: lookahead %v, bounded = %v, want %v", shards, w.lookahead, got, bounded)
		}
		w.run()
	}
}
