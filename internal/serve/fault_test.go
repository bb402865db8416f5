package serve

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"metachaos/internal/codec"
)

// panicOnce returns a WorldPanic hook whose first incarnation dies at
// its b'th command batch; respawned incarnations run clean.
func panicOnce(b int) func(int, int, int) int {
	return func(_, _, inc int) int {
		if inc == 0 {
			return b
		}
		return 0
	}
}

// waitStat polls the daemon's stats until pred holds or a timeout.
func waitStat(t *testing.T, srv *Server, what string, pred func(map[string]float64) bool) map[string]float64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var st map[string]float64
	for time.Now().Before(deadline) {
		st = srv.Stats()
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats %v", what, st)
	return nil
}

// dropWire simulates abrupt client death or a cut cable: the socket
// closes with no Bye and no coupling teardown.
func dropWire(c *Client) {
	c.mu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.mu.Unlock()
}

// TestServeWorldRespawnReplays is the journaling tentpole without wire
// faults: an injected world panic lands mid-move-stream, the server
// respawns the world from the coupling's journal, the client's
// transparent ErrRetryable resend completes, and every hash — crossing
// the respawn with MoveAdd state accumulated before it — stays
// bit-identical to Standalone.
func TestServeWorldRespawnReplays(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: -1, WorldPanic: panicOnce(5)})
	c := dialT(t, sock, "alice")
	defer c.Close()
	setupCoupling(t, c)
	// One resident world is up.  Its replacement is the same shape, so
	// once the dead one has let go of everything the count is back here.
	goroutines := runtime.NumGoroutine()

	kinds := []int{OpMove, OpMoveAdd, OpMoveAdd, OpMove, OpMoveReverse, OpMoveAdd, OpMove}
	var script []ScriptOp
	var got []uint64
	for i, k := range kinds {
		st, err := c.Move(1, k, int64(100+i))
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		got = append(got, st.Hash)
		script = append(script, ScriptOp{Kind: k, Seed: int64(100 + i)})
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the respawn, %d before the world died: the dead world's ranks were not unwound",
				runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}

	src, dst := testSpecs()
	want, err := Standalone(src, dst, script)
	if err != nil {
		t.Fatalf("standalone: %v", err)
	}
	for i := range want {
		if got[i] != want[i].Hash {
			t.Errorf("move %d: hash %#x through the respawned daemon, standalone %#x", i, got[i], want[i].Hash)
		}
	}

	stats := srv.Stats()
	if stats["serve_world_respawns"] < 1 {
		t.Errorf("serve_world_respawns = %v, want >= 1", stats["serve_world_respawns"])
	}
	if stats["serve_ops_replayed"] < 1 {
		t.Errorf("serve_ops_replayed = %v, want >= 1", stats["serve_ops_replayed"])
	}
	if stats["serve_retryable_total"] < 1 {
		t.Errorf("serve_retryable_total = %v, want >= 1", stats["serve_retryable_total"])
	}
	if c.Retries() < 1 {
		t.Errorf("client retries = %d, want >= 1", c.Retries())
	}
	if stats["serve_replay_mismatch_total"] != 0 {
		t.Errorf("serve_replay_mismatch_total = %v, want 0", stats["serve_replay_mismatch_total"])
	}
}

// TestServeChaosEndToEnd is the pinned-seed acceptance run: three
// tenants drive moves through seeded wire chaos (drops, torn writes,
// lost replies, stalls) while the first world incarnation is rigged to
// panic.  Every tenant's full hash sequence must come out bit-identical
// to its Standalone replay, with at least one world respawn and at
// least one client reconnect observed.
func TestServeChaosEndToEnd(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: -1, WorldPanic: panicOnce(7)})
	src, dst := testSpecs()

	const tenants = 3
	const movesPer = 10
	kinds := []int{OpMove, OpMoveAdd, OpMoveAdd, OpMoveReverse, OpMove}

	clients := make([]*Client, tenants)
	for i := range clients {
		c, err := DialWith(DialOptions{
			Network: "unix", Addr: sock, Tenant: fmt.Sprintf("tenant-%d", i),
			Chaos: &ChaosConfig{Seed: 0xC0FFEE + uint64(i), Rate: 0.05},
		})
		if err != nil {
			t.Fatalf("dial tenant %d: %v", i, err)
		}
		clients[i] = c
	}

	hashes := make([][]uint64, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			if err := c.RegisterDist(1, src); err != nil {
				errs[i] = fmt.Errorf("register src: %w", err)
				return
			}
			if err := c.RegisterDist(2, dst); err != nil {
				errs[i] = fmt.Errorf("register dst: %w", err)
				return
			}
			if _, _, err := c.OpenCoupling(1, 1, 2); err != nil {
				errs[i] = fmt.Errorf("open: %w", err)
				return
			}
			for m := 0; m < movesPer; m++ {
				st, err := c.Move(1, kinds[m%len(kinds)], int64(1000*i+m))
				if err != nil {
					errs[i] = fmt.Errorf("move %d: %w", m, err)
					return
				}
				hashes[i] = append(hashes[i], st.Hash)
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}

	reconnects := 0
	for i, c := range clients {
		var script []ScriptOp
		for m := 0; m < movesPer; m++ {
			script = append(script, ScriptOp{Kind: kinds[m%len(kinds)], Seed: int64(1000*i + m)})
		}
		want, err := Standalone(src, dst, script)
		if err != nil {
			t.Fatalf("standalone %d: %v", i, err)
		}
		for m := range want {
			if hashes[i][m] != want[m].Hash {
				t.Errorf("tenant %d move %d: hash %#x under chaos, standalone %#x",
					i, m, hashes[i][m], want[m].Hash)
			}
		}
		reconnects += c.Reconnects()
		c.Close()
	}

	stats := srv.Stats()
	if stats["serve_world_respawns"] < 1 {
		t.Errorf("serve_world_respawns = %v, want >= 1", stats["serve_world_respawns"])
	}
	if reconnects < 1 {
		t.Errorf("total client reconnects = %d, want >= 1", reconnects)
	}
	if stats["serve_replay_mismatch_total"] != 0 {
		t.Errorf("serve_replay_mismatch_total = %v, want 0", stats["serve_replay_mismatch_total"])
	}
	t.Logf("chaos run: %d reconnects, %.0f respawns, %.0f ops replayed, %.0f dedup replies, %.0f resumes",
		reconnects, stats["serve_world_respawns"], stats["serve_ops_replayed"],
		stats["serve_dedup_replies_total"], stats["serve_resumes_total"])
}

// TestServeLeaseExpiryReclaims is the leak test: a tenant that
// vanishes mid-session (open coupling, no Bye) must be fully reclaimed
// by lease expiry — session slot, in-flight budget and couplings all
// return to zero, and the freed slot admits the next tenant.
func TestServeLeaseExpiryReclaims(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: -1, Lease: 60 * time.Millisecond, MaxSessions: 1})
	c := dialT(t, sock, "ghost")
	setupCoupling(t, c)
	if _, err := c.Move(1, OpMove, 7); err != nil {
		t.Fatalf("move: %v", err)
	}
	dropWire(c)

	waitStat(t, srv, "lease expiry to reclaim the session", func(m map[string]float64) bool {
		return m["serve_lease_expired"] >= 1 && m["serve_sessions"] == 0 && m["serve_inflight"] == 0
	})

	// The slot is free again: with MaxSessions=1 this dial only works if
	// the ghost's lease actually released it.
	c2 := dialT(t, sock, "next")
	defer c2.Close()
	if err := ping(c2); err != nil {
		t.Fatalf("ping on reclaimed slot: %v", err)
	}

	// The ghost's session is gone for good: its next request reconnects,
	// tries to resume, and gets the typed refusal.
	if _, err := c.Move(1, OpMove, 8); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("move after expiry: err = %v, want ErrUnknownSession", err)
	}
}

// TestServeReconnectResume covers client hardening without chaos: the
// wire drops abruptly mid-session, the next request transparently
// redials and resumes by token, and MoveAdd state accumulated before
// the drop is still there — proof the same leased session carried over.
func TestServeReconnectResume(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "flaky")
	defer c.Close()
	setupCoupling(t, c)

	var script []ScriptOp
	var got []uint64
	mv := func(i int) {
		st, err := c.Move(1, OpMoveAdd, int64(i))
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		got = append(got, st.Hash)
		script = append(script, ScriptOp{Kind: OpMoveAdd, Seed: int64(i)})
	}
	for i := 0; i < 3; i++ {
		mv(i)
	}
	dropWire(c)
	for i := 3; i < 6; i++ {
		mv(i)
	}
	if c.Reconnects() != 1 {
		t.Errorf("reconnects = %d, want 1", c.Reconnects())
	}

	src, dst := testSpecs()
	want, err := Standalone(src, dst, script)
	if err != nil {
		t.Fatalf("standalone: %v", err)
	}
	for i := range want {
		if got[i] != want[i].Hash {
			t.Errorf("move %d: hash %#x across reconnect, standalone %#x", i, got[i], want[i].Hash)
		}
	}
	if st := srv.Stats(); st["serve_resumes_total"] < 1 {
		t.Errorf("serve_resumes_total = %v, want >= 1", st["serve_resumes_total"])
	}
}

// rawHello speaks the wire protocol by hand and returns the session
// token the server granted.
func rawHello(t *testing.T, conn net.Conn, tenant, resume string, id uint32) string {
	t.Helper()
	var w codec.Writer
	w.PutString(tenant)
	w.PutInt32(protoVersion)
	w.PutString(resume)
	rtyp, rp := rawReq(t, conn, msgHello, id, w.Bytes())
	if rtyp != msgWelcome {
		t.Fatalf("hello answered %d: %s", rtyp, decodeError(rp))
	}
	r := codec.NewReader(rp)
	r.Int32()      // version
	_ = r.String() // server
	_ = r.String() // machine
	tok := r.String()
	r.Int64() // lease ms
	return tok
}

// rawReq writes one frame and reads the matching reply.
func rawReq(t *testing.T, conn net.Conn, typ byte, id uint32, payload []byte) (byte, []byte) {
	t.Helper()
	if err := writeFrame(conn, typ, id, payload); err != nil {
		t.Fatalf("write frame %d: %v", typ, err)
	}
	rtyp, rid, rp, err := readFrame(conn, maxFrame)
	if err != nil {
		t.Fatalf("read reply to %d: %v", typ, err)
	}
	if rid != id {
		t.Fatalf("reply id %d for request %d", rid, id)
	}
	return rtyp, rp
}

// TestServeRetryDedup drives the dedup contract directly over raw
// frames: resending the last mutating op's id after a reconnect must
// answer from the cache — same bytes, no re-execution.
func TestServeRetryDedup(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: -1})
	src, dst := testSpecs()

	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	tok := rawHello(t, conn, "manual", "", 1)

	var w codec.Writer
	w.PutInt32(1)
	putSpec(&w, &src)
	if rtyp, _ := rawReq(t, conn, msgRegisterDist, 2, w.Bytes()); rtyp != msgOK {
		t.Fatalf("register src answered %d", rtyp)
	}
	w = codec.Writer{}
	w.PutInt32(2)
	putSpec(&w, &dst)
	if rtyp, _ := rawReq(t, conn, msgRegisterDist, 3, w.Bytes()); rtyp != msgOK {
		t.Fatalf("register dst answered %d", rtyp)
	}
	w = codec.Writer{}
	w.PutInt32(1)
	w.PutInt32(1)
	w.PutInt32(2)
	if rtyp, _ := rawReq(t, conn, msgOpenCoupling, 4, w.Bytes()); rtyp != msgCouplingReady {
		t.Fatalf("open answered %d", rtyp)
	}

	movePayload := func() []byte {
		var w codec.Writer
		w.PutInt32(1)
		w.PutInt32(int32(OpMoveAdd))
		w.PutInt64(42)
		return w.Bytes()
	}
	rtyp, first := rawReq(t, conn, msgMove, 5, movePayload())
	if rtyp != msgMoveDone {
		t.Fatalf("move answered %d", rtyp)
	}

	// "Lose" the reply: reconnect and resend the identical request id.
	conn.Close()
	conn2, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer conn2.Close()
	rawHello(t, conn2, "manual", tok, 6)
	rtyp, second := rawReq(t, conn2, msgMove, 5, movePayload())
	if rtyp != msgMoveDone {
		t.Fatalf("retried move answered %d", rtyp)
	}
	if string(first) != string(second) {
		t.Fatalf("retried move reply differs from the original")
	}

	stats := srv.Stats()
	if stats["serve_moves_total"] != 1 {
		t.Errorf("serve_moves_total = %v, want 1 (retry must not re-execute)", stats["serve_moves_total"])
	}
	if stats["serve_dedup_replies_total"] != 1 {
		t.Errorf("serve_dedup_replies_total = %v, want 1", stats["serve_dedup_replies_total"])
	}

	// A fresh id executes normally again.
	if rtyp, _ := rawReq(t, conn2, msgMove, 7, movePayload()); rtyp != msgMoveDone {
		t.Fatalf("fresh move answered %d", rtyp)
	}
	if got := srv.Stats()["serve_moves_total"]; got != 2 {
		t.Errorf("serve_moves_total after fresh id = %v, want 2", got)
	}
}

// ping sends the wire protocol's lease-refreshing no-op, as any client
// may.
func ping(c *Client) error {
	_, err := c.do(msgPing, nil, msgOK)
	return err
}

// TestServePingKeepsLeaseAlive: pings alone hold a session past many
// lease intervals; silence lets it expire, after which resume is
// refused with the typed error.
func TestServePingKeepsLeaseAlive(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: -1, Lease: 300 * time.Millisecond})
	c := dialT(t, sock, "pinger")
	for i := 0; i < 8; i++ {
		time.Sleep(50 * time.Millisecond)
		if err := ping(c); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st["serve_lease_expired"] != 0 {
		t.Fatalf("lease expired despite pings: %v", st["serve_lease_expired"])
	}
	// Go silent; the sweeper reclaims the session and closes our conn.
	waitStat(t, srv, "idle lease expiry", func(m map[string]float64) bool {
		return m["serve_lease_expired"] >= 1 && m["serve_sessions"] == 0
	})
	if err := ping(c); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("ping after expiry: err = %v, want ErrUnknownSession", err)
	}
}

// TestServeJournalOverflowBreaksCoupling: past MaxJournal a coupling
// keeps serving but cannot survive a world death; after the respawn it
// reports terminal ErrWorldFailed, while a freshly opened coupling on
// the respawned world works.
func TestServeJournalOverflowBreaksCoupling(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: -1, MaxJournal: 2, WorldPanic: panicOnce(6)})
	c := dialT(t, sock, "spill")
	defer c.Close()
	setupCoupling(t, c) // batch 1

	for i := 0; i < 4; i++ { // batches 2-5; journal overflows at the 3rd move
		if _, err := c.Move(1, OpMove, int64(i)); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	// Batch 6 dies; the journal is gone, so the retry finds the coupling
	// broken and surfaces the terminal error.
	if _, err := c.Move(1, OpMove, 99); !errors.Is(err, ErrWorldFailed) {
		t.Fatalf("move on unrecoverable coupling: err = %v, want ErrWorldFailed", err)
	}
	stats := srv.Stats()
	if stats["serve_journal_overflow_total"] < 1 {
		t.Errorf("serve_journal_overflow_total = %v, want >= 1", stats["serve_journal_overflow_total"])
	}
	if stats["serve_replay_unrecoverable_total"] < 1 {
		t.Errorf("serve_replay_unrecoverable_total = %v, want >= 1", stats["serve_replay_unrecoverable_total"])
	}

	// The session recovers by discarding the broken coupling and
	// reopening on the respawned world.
	if err := c.CloseCoupling(1); err != nil {
		t.Fatalf("close broken coupling: %v", err)
	}
	if _, _, err := c.OpenCoupling(1, 1, 2); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := c.Move(1, OpMove, 1); err != nil {
		t.Fatalf("move on reopened coupling: %v", err)
	}
}

// TestServeCacheEviction: with a 1-entry per-rank schedule cache, two
// alternating coupling shapes evict each other, the daemon reports the
// evictions, and correctness is untouched (evicted schedules rebuild).
func TestServeCacheEviction(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: -1, CacheEntries: 1})
	c := dialT(t, sock, "churner")
	defer c.Close()
	srcA, dstA := testSpecs()
	srcB, dstB := srcA, dstA
	srcB.Shape = []int{120}
	dstB.Shape = []int{120}
	for _, reg := range []struct {
		id   int
		spec DistSpec
	}{{1, srcA}, {2, dstA}, {3, srcB}, {4, dstB}} {
		if err := c.RegisterDist(reg.id, reg.spec); err != nil {
			t.Fatalf("register %d: %v", reg.id, err)
		}
	}
	for round := 0; round < 3; round++ {
		for pair := 0; pair < 2; pair++ {
			id := 10 + pair
			if _, _, err := c.OpenCoupling(id, 1+2*pair, 2+2*pair); err != nil {
				t.Fatalf("round %d open %d: %v", round, id, err)
			}
			if _, err := c.Move(id, OpMove, int64(round)); err != nil {
				t.Fatalf("round %d move %d: %v", round, id, err)
			}
			if err := c.CloseCoupling(id); err != nil {
				t.Fatalf("round %d close %d: %v", round, id, err)
			}
		}
	}
	stats := srv.Stats()
	if stats["serve_cache_evictions"] < 1 {
		t.Errorf("serve_cache_evictions = %v, want >= 1", stats["serve_cache_evictions"])
	}
}

// TestServeEvictionsOutliveIncarnations: a world that dies and respawns
// over and over leaves the daemon one eviction entry per live world —
// not one per incarnation ever started, each pinning a dead runner —
// while serve_cache_evictions keeps counting the evictions of every
// incarnation, replaced ones included.
func TestServeEvictionsOutliveIncarnations(t *testing.T) {
	const deaths = 3
	srv, sock := startServer(t, Options{FlushWindow: -1, CacheEntries: 1,
		WorldPanic: func(_, _, inc int) int {
			if inc < deaths {
				return 6
			}
			return 0
		}})
	c := dialT(t, sock, "phoenix")
	defer c.Close()
	srcA, dstA := testSpecs()
	srcB, dstB := srcA, dstA
	srcB.Shape = []int{120}
	dstB.Shape = []int{120}
	for id, spec := range []DistSpec{srcA, dstA, srcB, dstB} {
		if err := c.RegisterDist(id, spec); err != nil {
			t.Fatalf("register %d: %v", id, err)
		}
	}
	for round := 0; round < 8; round++ {
		for pair := 0; pair < 2; pair++ {
			if _, _, err := c.OpenCoupling(pair, 2*pair, 2*pair+1); err != nil {
				t.Fatalf("round %d open %d: %v", round, pair, err)
			}
			if _, err := c.Move(pair, OpMove, int64(round)); err != nil {
				t.Fatalf("round %d move %d: %v", round, pair, err)
			}
			if err := c.CloseCoupling(pair); err != nil {
				t.Fatalf("round %d close %d: %v", round, pair, err)
			}
		}
	}
	stats := srv.Stats()
	if got := stats["serve_world_respawns"]; got != deaths {
		t.Fatalf("serve_world_respawns = %v, want %d", got, deaths)
	}
	srv.mu.Lock()
	entries, worlds := len(srv.worldEvict), len(srv.runners)
	current := 0
	for _, r := range srv.runners {
		current += srv.worldEvict[r]
	}
	srv.mu.Unlock()
	if entries != worlds {
		t.Errorf("%d eviction entries for %d live worlds", entries, worlds)
	}
	if total := stats["serve_cache_evictions"]; total <= float64(current) || current < 1 {
		t.Errorf("serve_cache_evictions = %v, the live world's own %d: replaced incarnations' evictions are not counted", total, current)
	}
}

// TestServeShardedResidentWorld stands up a soak-scale resident world
// (256 union ranks, which auto-shards the scheduler) and checks the
// daemon path against Standalone — the property the nightly soak
// gates.  The world is big, so it is skipped in -short runs.
func TestServeShardedResidentWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("256-rank resident world is too heavy for -short")
	}
	_, sock := startServer(t, Options{FlushWindow: -1, MaxProcs: 160})
	c := dialT(t, sock, "bulk")
	defer c.Close()
	src := DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{4096}, Procs: 160}
	dst := DistSpec{Library: "mbparti", Layout: "blockvec", Shape: []int{4096}, Procs: 96}
	if err := c.RegisterDist(1, src); err != nil {
		t.Fatalf("register src: %v", err)
	}
	if err := c.RegisterDist(2, dst); err != nil {
		t.Fatalf("register dst: %v", err)
	}
	if _, _, err := c.OpenCoupling(1, 1, 2); err != nil {
		t.Fatalf("open: %v", err)
	}
	var script []ScriptOp
	var got []uint64
	for i, k := range []int{OpMove, OpMoveAdd, OpMoveReverse} {
		st, err := c.Move(1, k, int64(i))
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		got = append(got, st.Hash)
		script = append(script, ScriptOp{Kind: k, Seed: int64(i)})
	}
	want, err := Standalone(src, dst, script)
	if err != nil {
		t.Fatalf("standalone: %v", err)
	}
	for i := range want {
		if got[i] != want[i].Hash {
			t.Errorf("move %d: sharded daemon hash %#x, standalone %#x", i, got[i], want[i].Hash)
		}
	}
}
