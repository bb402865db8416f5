package serve

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// testSpecs returns the canonical HPF-to-Parti vector pair the tests
// couple: 60 elements block-distributed over 3 source and 2
// destination processes.
func testSpecs() (DistSpec, DistSpec) {
	src := DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{60}, Procs: 3}
	dst := DistSpec{Library: "mbparti", Layout: "blockvec", Shape: []int{60}, Procs: 2}
	return src, dst
}

// startServer runs a daemon on a unix socket in a test tempdir and
// returns its address plus a cleanup-registered shutdown.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "mc.sock")
	srv := NewServer(opts)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	// The socket is listening already: a dial queues on it until Serve
	// accepts.
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-errc; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, sock
}

// dialT connects a test tenant.
func dialT(t *testing.T, sock, tenant string) *Client {
	t.Helper()
	c, err := Dial("unix", sock, tenant)
	if err != nil {
		t.Fatalf("dial %s: %v", tenant, err)
	}
	return c
}

// setupCoupling registers the canonical pair and opens coupling 1.
func setupCoupling(t *testing.T, c *Client) (warm bool, elems int) {
	t.Helper()
	src, dst := testSpecs()
	if err := c.RegisterDist(1, src); err != nil {
		t.Fatalf("register src: %v", err)
	}
	if err := c.RegisterDist(2, dst); err != nil {
		t.Fatalf("register dst: %v", err)
	}
	warm, elems, err := c.OpenCoupling(1, 1, 2)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return warm, elems
}

// TestServeMatchesStandalone is the core acceptance property: a
// tenant's move hashes through the daemon are bit-identical to a
// standalone replay of the same op sequence, for all three move kinds
// (including MoveAdd's accumulated state).
func TestServeMatchesStandalone(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	warm, elems := setupCoupling(t, c)
	if warm {
		t.Error("first open of a fresh daemon reported a warm schedule")
	}
	if elems != 60 {
		t.Errorf("elems = %d, want 60", elems)
	}
	ops := []ScriptOp{
		{Kind: OpMove, Seed: 11},
		{Kind: OpMoveAdd, Seed: 22},
		{Kind: OpMoveAdd, Seed: 22},
		{Kind: OpMoveReverse, Seed: 33},
		{Kind: OpMove, Seed: 11},
	}
	var served []uint64
	for _, op := range ops {
		st, err := c.Move(1, op.Kind, op.Seed)
		if err != nil {
			t.Fatalf("move %+v: %v", op, err)
		}
		served = append(served, st.Hash)
	}
	src, dst := testSpecs()
	ref, err := Standalone(src, dst, ops)
	if err != nil {
		t.Fatalf("standalone: %v", err)
	}
	for i := range ops {
		if served[i] != ref[i].Hash {
			t.Errorf("move %d: served hash %016x != standalone %016x", i, served[i], ref[i].Hash)
		}
	}
	// Identical seeds produce identical hashes; the accumulated MoveAdd
	// state must differ from the plain copy.
	if served[0] != served[4] {
		t.Error("same seed, same kind produced different hashes")
	}
	if served[1] == served[2] {
		t.Error("repeated MoveAdd did not change the accumulated destination")
	}
}

// TestServeTwoTenantsShareSchedules is the amortization claim: the
// second tenant declaring the same distribution pair opens warm, the
// daemon's hit rate goes positive, and concurrent traffic from both
// tenants stays bit-stable per tenant.
func TestServeTwoTenantsShareSchedules(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: 500 * time.Microsecond})
	a := dialT(t, sock, "alice")
	defer a.Close()
	b := dialT(t, sock, "bob")
	defer b.Close()

	warmA, _ := setupCoupling(t, a)
	if warmA {
		t.Error("alice's open should build cold")
	}
	warmB, _ := setupCoupling(t, b)
	if !warmB {
		t.Error("bob's open of the same pair should hit alice's schedule")
	}

	// Both tenants stream the same seeds concurrently; the batched,
	// multiplexed execution must give each the same answers.
	const moves = 6
	hashes := make([][]uint64, 2)
	var wg sync.WaitGroup
	for i, c := range []*Client{a, b} {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for m := 0; m < moves; m++ {
				st, err := c.Move(1, OpMove, int64(100+m))
				if err != nil {
					t.Errorf("tenant %d move %d: %v", i, m, err)
					return
				}
				hashes[i] = append(hashes[i], st.Hash)
			}
		}(i, c)
	}
	wg.Wait()
	for m := 0; m < moves; m++ {
		if hashes[0][m] != hashes[1][m] {
			t.Errorf("move %d: alice %016x != bob %016x", m, hashes[0][m], hashes[1][m])
		}
	}

	stats := srv.Stats()
	if stats["serve_cache_hit_rate"] <= 0 {
		t.Errorf("cache hit rate %v, want > 0", stats["serve_cache_hit_rate"])
	}
	if stats["serve_opens_total"] != 2 || stats["serve_open_warm_total"] != 1 {
		t.Errorf("opens=%v warm=%v, want 2/1", stats["serve_opens_total"], stats["serve_open_warm_total"])
	}
	if stats["serve_moves_total"] != 2*moves {
		t.Errorf("moves=%v, want %d", stats["serve_moves_total"], 2*moves)
	}
	if stats["serve_worlds"] != 1 {
		t.Errorf("worlds=%v, want 1 shared resident world", stats["serve_worlds"])
	}

	// The same stats are readable over the wire.
	wire, err := a.Stats()
	if err != nil {
		t.Fatalf("client stats: %v", err)
	}
	if wire["serve_cache_hit_rate"] <= 0 {
		t.Error("wire stats lost the hit rate")
	}
}

// TestServeBackpressure pins admission control: with no in-flight
// budget every move is refused with the typed error, the session
// survives, and nothing hangs.
func TestServeBackpressure(t *testing.T) {
	// A negative MaxInflight survives withDefaults and admits nothing.
	srv, sock := startServer(t, Options{MaxInflight: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	setupCoupling(t, c)
	_, err := c.Move(1, OpMove, 1)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("move with zero budget: %v, want ErrBackpressure", err)
	}
	// The session is still healthy: stats and close work.
	if _, err := c.Stats(); err != nil {
		t.Errorf("stats after backpressure: %v", err)
	}
	if srv.Stats()["serve_backpressure_total"] < 1 {
		t.Error("backpressure was not counted")
	}
}

// TestServeSessionLimit pins connection admission: the daemon refuses
// tenant N+1 with the typed error and keeps serving tenant N.
func TestServeSessionLimit(t *testing.T) {
	_, sock := startServer(t, Options{MaxSessions: 1})
	a := dialT(t, sock, "alice")
	defer a.Close()
	if _, err := Dial("unix", sock, "bob"); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("second session: %v, want ErrSessionLimit", err)
	}
	if _, _, err := a.OpenCoupling(9, 9, 9); !errors.Is(err, ErrUnknownDist) {
		t.Errorf("first session no longer serving: %v", err)
	}
}

// TestServeSessionBudgets pins the per-session registration budgets:
// one session may hold maxDists distributions and maxCouplings open
// couplings, and the next of either is refused with ErrLimit.
func TestServeSessionBudgets(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "hoarder")
	defer c.Close()
	src, dst := testSpecs()
	for id := 0; id < maxDists; id++ {
		spec := src
		if id == 1 {
			spec = dst
		}
		if err := c.RegisterDist(id, spec); err != nil {
			t.Fatalf("register %d: %v", id, err)
		}
	}
	if err := c.RegisterDist(maxDists, src); !errors.Is(err, ErrLimit) {
		t.Errorf("distribution %d: %v, want ErrLimit", maxDists+1, err)
	}
	if err := c.RegisterDist(0, src); err != nil {
		t.Errorf("re-registering a held id: %v", err)
	}
	for id := 0; id < maxCouplings; id++ {
		if _, _, err := c.OpenCoupling(id, 0, 1); err != nil {
			t.Fatalf("open %d: %v", id, err)
		}
	}
	if _, _, err := c.OpenCoupling(maxCouplings, 0, 1); !errors.Is(err, ErrLimit) {
		t.Errorf("coupling %d: %v, want ErrLimit", maxCouplings+1, err)
	}
}

// TestServeTypedErrors walks the request-validation surface.
func TestServeTypedErrors(t *testing.T) {
	_, sock := startServer(t, Options{MaxProcs: 4})
	c := dialT(t, sock, "alice")
	defer c.Close()

	bad := DistSpec{Library: "hpfrt", Layout: "spiral", Shape: []int{8}, Procs: 2}
	if err := c.RegisterDist(1, bad); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad layout: %v, want ErrBadSpec", err)
	}
	big := DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{64}, Procs: 7}
	if err := c.RegisterDist(1, big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized procs: %v, want ErrTooLarge", err)
	}
	if _, _, err := c.OpenCoupling(1, 1, 2); !errors.Is(err, ErrUnknownDist) {
		t.Errorf("unregistered dists: %v, want ErrUnknownDist", err)
	}
	if _, err := c.Move(5, OpMove, 1); !errors.Is(err, ErrUnknownCoupling) {
		t.Errorf("unopened coupling: %v, want ErrUnknownCoupling", err)
	}
	if err := c.CloseCoupling(5); !errors.Is(err, ErrUnknownCoupling) {
		t.Errorf("closing unopened coupling: %v, want ErrUnknownCoupling", err)
	}

	src, dst := testSpecs()
	if err := c.RegisterDist(1, src); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDist(2, dst); err != nil {
		t.Fatal(err)
	}
	short := DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{30}, Procs: 2}
	if err := c.RegisterDist(3, short); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.OpenCoupling(1, 1, 3); !errors.Is(err, ErrBadSpec) {
		t.Errorf("mismatched pair: %v, want ErrBadSpec", err)
	}
	if _, _, err := c.OpenCoupling(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.OpenCoupling(1, 1, 2); !errors.Is(err, ErrBadSpec) {
		t.Errorf("reopening a live coupling id: %v, want ErrBadSpec", err)
	}
}

// TestServeTCP runs the same coupling over a TCP loopback socket.
func TestServeTCP(t *testing.T) {
	srv := NewServer(Options{FlushWindow: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-errc; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	c, err := Dial("tcp", ln.Addr().String(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setupCoupling(t, c)
	st, err := c.Move(1, OpMove, 5)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := testSpecs()
	ref, err := Standalone(src, dst, []ScriptOp{{Kind: OpMove, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash != ref[0].Hash {
		t.Errorf("TCP hash %016x != standalone %016x", st.Hash, ref[0].Hash)
	}
}

// TestServeChurnReopens pins session churn: close/reopen cycles reuse
// the cached schedule (warm open) and fresh objects (a MoveAdd after
// reopen starts from zeroed storage).
func TestServeChurnReopens(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	setupCoupling(t, c)
	st1, err := c.Move(1, OpMoveAdd, 77)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Move(1, OpMoveAdd, 77)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Hash == st2.Hash {
		t.Error("second MoveAdd should accumulate, not repeat")
	}
	if err := c.CloseCoupling(1); err != nil {
		t.Fatal(err)
	}
	warm, _, err := c.OpenCoupling(1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Error("reopen after close should be warm")
	}
	st3, err := c.Move(1, OpMoveAdd, 77)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Hash != st1.Hash {
		t.Errorf("MoveAdd on a reopened coupling %016x, want fresh-storage hash %016x", st3.Hash, st1.Hash)
	}
}

// TestStandaloneValidates covers the reference executor's own input
// checking.
func TestStandaloneValidates(t *testing.T) {
	src, _ := testSpecs()
	bad := DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{61}, Procs: 2}
	if _, err := Standalone(src, bad, nil); !errors.Is(err, ErrBadSpec) {
		t.Errorf("mismatched standalone pair: %v, want ErrBadSpec", err)
	}
}

// TestServeManyTenants floods the daemon with more concurrent tenants
// than worlds, mixing pairs, verifying every hash against standalone.
func TestServeManyTenants(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: time.Millisecond})
	pairs := [][2]DistSpec{}
	{
		s, d := testSpecs()
		pairs = append(pairs, [2]DistSpec{s, d})
	}
	// A different process shape than testSpecs' 3->2, so the daemon
	// must host a second resident world.
	pairs = append(pairs, [2]DistSpec{
		{Library: "mbparti", Layout: "block2d", Shape: []int{8, 8}, Procs: 4},
		{Library: "hpfrt", Layout: "rowblock", Shape: []int{8, 8}, Procs: 2},
	})

	const tenants = 4
	const moves = 4
	type result struct {
		pair   int
		hashes []uint64
		err    error
	}
	results := make([]result, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := i % len(pairs)
			results[i].pair = p
			c, err := Dial("unix", sock, fmt.Sprintf("tenant-%d", i))
			if err != nil {
				results[i].err = err
				return
			}
			defer c.Close()
			if err := c.RegisterDist(1, pairs[p][0]); err != nil {
				results[i].err = err
				return
			}
			if err := c.RegisterDist(2, pairs[p][1]); err != nil {
				results[i].err = err
				return
			}
			if _, _, err := c.OpenCoupling(1, 1, 2); err != nil {
				results[i].err = err
				return
			}
			for m := 0; m < moves; m++ {
				st, err := c.Move(1, OpMove, int64(m))
				if err != nil {
					results[i].err = err
					return
				}
				results[i].hashes = append(results[i].hashes, st.Hash)
			}
		}(i)
	}
	wg.Wait()

	ops := make([]ScriptOp, moves)
	for m := range ops {
		ops[m] = ScriptOp{Kind: OpMove, Seed: int64(m)}
	}
	for p := range pairs {
		ref, err := Standalone(pairs[p][0], pairs[p][1], ops)
		if err != nil {
			t.Fatalf("standalone pair %d: %v", p, err)
		}
		for i := range results {
			if results[i].err != nil {
				t.Fatalf("tenant %d: %v", i, results[i].err)
			}
			if results[i].pair != p {
				continue
			}
			for m := range ref {
				if results[i].hashes[m] != ref[m].Hash {
					t.Errorf("tenant %d move %d: %016x != standalone %016x",
						i, m, results[i].hashes[m], ref[m].Hash)
				}
			}
		}
	}
	if w := srv.Stats()["serve_worlds"]; w != 2 {
		t.Errorf("worlds=%v, want 2 (one per coupling shape)", w)
	}
}

// TestServeSamePlacementDistinctPairOpensCold pins what the cache key
// means: blockvec(4096) and rowblock(64×64) over the same process count
// have identical linearized placement, but they are distinct pairs, so
// the second open builds its own schedule (cold) rather than sharing the
// first pair's, and its moves stay bit-identical to a standalone build
// of the same pair.
func TestServeSamePlacementDistinctPairOpensCold(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()

	pairA := [2]DistSpec{
		{Library: "hpfrt", Layout: "blockvec", Shape: []int{4096}, Procs: 2},
		{Library: "mbparti", Layout: "blockvec", Shape: []int{4096}, Procs: 2},
	}
	pairB := [2]DistSpec{
		{Library: "hpfrt", Layout: "rowblock", Shape: []int{64, 64}, Procs: 2},
		{Library: "mbparti", Layout: "blockvec", Shape: []int{4096}, Procs: 2},
	}
	for i, spec := range []DistSpec{pairA[0], pairA[1], pairB[0], pairB[1]} {
		if err := c.RegisterDist(i+1, spec); err != nil {
			t.Fatalf("register %d: %v", i+1, err)
		}
	}
	if _, _, err := c.OpenCoupling(1, 1, 2); err != nil {
		t.Fatalf("open blockvec pair: %v", err)
	}
	warm, _, err := c.OpenCoupling(2, 3, 4)
	if err != nil {
		t.Fatalf("open rowblock pair: %v", err)
	}
	if warm {
		t.Error("a distinct pair key should not report a cache hit")
	}

	ops := []ScriptOp{{Kind: OpMove, Seed: 3}, {Kind: OpMoveAdd, Seed: 5}, {Kind: OpMoveReverse, Seed: 7}}
	ref, err := Standalone(pairB[0], pairB[1], ops)
	if err != nil {
		t.Fatalf("standalone: %v", err)
	}
	for i, so := range ops {
		got, err := c.Move(2, so.Kind, so.Seed)
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		if got.Hash != ref[i].Hash {
			t.Errorf("move %d: hash %016x != standalone %016x", i, got.Hash, ref[i].Hash)
		}
	}
}
