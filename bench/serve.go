package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"metachaos/internal/serve"
)

// serve-steady: an in-process coupling daemon on a unix socket and two
// tenant sessions, each a closed loop of Client.Move calls — a serve
// session is sequential by protocol.  Arrays are small, so the path
// frame → session → dispatcher → in-world broadcast → reply dominates;
// the inspector appears only in set-up, the executor barely at all.

const serveTenants = 2

// servePairs has the shape of mcload's std catalog, on 4+4 ranks so the
// resident world has 8.  Every tenant declares the same specs, which is
// what lets them share one world and its schedule cache.
var servePairs = []struct {
	name     string
	src, dst serve.DistSpec
}{
	{"vec-hpf-parti",
		serve.DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{240}, Procs: 4},
		serve.DistSpec{Library: "mbparti", Layout: "blockvec", Shape: []int{240}, Procs: 4}},
	{"mat-parti-hpf",
		serve.DistSpec{Library: "mbparti", Layout: "block2d", Shape: []int{16, 16}, Procs: 4},
		serve.DistSpec{Library: "hpfrt", Layout: "rowblock", Shape: []int{16, 16}, Procs: 4}},
	{"coll-pcxx",
		serve.DistSpec{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{120}, Procs: 4, ElemWords: 2},
		serve.DistSpec{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{120}, Procs: 4, ElemWords: 2}},
}

// script is what one tenant did to one coupling since it was opened,
// and what the daemon said the landing side hashed to each time.
type script struct {
	ops    []serve.ScriptOp
	hashes []uint64
}

// tenant is one client session and its record of the timed section.
type tenant struct {
	id      int
	c       *serve.Client
	scripts []script // per pair
	next    int      // moves issued so far
	spans   *spanLog

	t0    []time.Duration
	opMs  []float64
	costS float64 // Σ MoveStats.Cost over the timed section
}

// serveRun is one daemon incarnation.  Its counts are over both tenants,
// who issue half each.
type serveRun struct {
	seed  uint64
	kinds []int // the seed's move-kind cycle
	counts
	setupOnly bool // stop, and close the daemon, where the timed section would begin
	sock      string

	// Traced runs only: the driver's spans (the tenants' logs share
	// their origin) and a hook called as the timed section begins and
	// ends.
	spans     *spanLog
	onSection func(begin bool)

	setupS       float64
	openColdMs   []float64
	openWarmMs   []float64
	tenants      []*tenant
	stats        map[string]float64
	mem          [2]runtime.MemStats
	sectionStart time.Time
	sectionEnd   time.Duration // since sectionStart
	retries      int
}

// serveKinds draws the move-kind cycle from the seed: twice as many
// plain moves as accumulates and reverses, as mcload mixes them.
func serveKinds(seed uint64) []int {
	rng := splitmix(seed)
	mix := [...]int{opMove, opMoveAdd, opMove, opMoveReverse, opMove, opMoveAdd, opMove, opMoveReverse}
	kinds := make([]int, len(mix))
	for i, j := range rng.perm(len(mix)) {
		kinds[i] = mix[j]
	}
	return kinds
}

// move issues the tenant's next move and records it for the oracle.
func (t *tenant) move(r *serveRun, timed bool) error {
	n := t.next
	t.next++
	pair := (t.id + n) % len(servePairs)
	op := serve.ScriptOp{
		Kind: r.kinds[n%len(r.kinds)],
		Seed: int64(r.seed%1000003)*1000003 + int64(t.id)*1000000007 + int64(n),
	}
	s := t.spans.begin("client.move", n)
	start := time.Now()
	st, err := t.c.Move(pair, op.Kind, op.Seed)
	lat := time.Since(start)
	s.end()
	if err != nil {
		return fmt.Errorf("tenant %d move %d on %s: %w", t.id, n, servePairs[pair].name, err)
	}
	sc := &t.scripts[pair]
	sc.ops = append(sc.ops, op)
	sc.hashes = append(sc.hashes, st.Hash)
	if timed {
		t.t0 = append(t.t0, start.Sub(r.sectionStart))
		t.opMs = append(t.opMs, ms(lat))
		t.costS += st.Cost
	}
	return nil
}

// moves has every tenant issue n moves, the tenants side by side, and
// returns the first error.
func (r *serveRun) moves(n int, timed bool) error {
	errs := make([]error, len(r.tenants))
	var wg sync.WaitGroup
	for i, t := range r.tenants {
		wg.Add(1)
		go func(i int, t *tenant) {
			defer wg.Done()
			for m := 0; m < n && errs[i] == nil; m++ {
				errs[i] = t.move(r, timed)
			}
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run executes the incarnation; start is when its set-up began.
func (r *serveRun) run(start time.Time) (err error) {
	setup := r.spans.begin("setup", -1)
	srv := serve.NewServer(serve.Options{})
	os.Remove(r.sock)
	ln, err := net.Listen("unix", r.sock)
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		for _, t := range r.tenants {
			if t.c != nil {
				r.retries += t.c.Retries() + t.c.Reconnects()
				t.c.Close()
			}
		}
		srv.Close()
		if serr := <-served; serr != nil && err == nil {
			err = serr
		}
		os.Remove(r.sock)
	}()

	// Tenant 0 opens every coupling cold; tenant 1 then finds the
	// schedules in the resident world's cache.
	for id := 0; id < serveTenants; id++ {
		t := &tenant{id: id, scripts: make([]script, len(servePairs))}
		if r.spans != nil {
			t.spans = newSpanLog(r.spans.origin, fmt.Sprintf("tenant-%d", id))
		}
		r.tenants = append(r.tenants, t)
		if t.c, err = serve.Dial("unix", r.sock, fmt.Sprintf("tenant-%d", id)); err != nil {
			return err
		}
		for k, p := range servePairs {
			if err = t.c.RegisterDist(2*k, p.src); err == nil {
				err = t.c.RegisterDist(2*k+1, p.dst)
			}
			if err != nil {
				return fmt.Errorf("register %s: %w", p.name, err)
			}
			s := t.spans.begin("client.open", -1)
			at := time.Now()
			warm, _, err := t.c.OpenCoupling(k, 2*k, 2*k+1)
			s.end()
			if err != nil {
				return fmt.Errorf("open %s: %w", p.name, err)
			}
			if warm {
				r.openWarmMs = append(r.openWarmMs, ms(time.Since(at)))
			} else {
				r.openColdMs = append(r.openColdMs, ms(time.Since(at)))
			}
		}
	}
	// First moves, one per pair per tenant, then the warm-up.
	if err = r.moves(len(servePairs)+r.warmOps/serveTenants, false); err != nil {
		return err
	}
	r.setupS = time.Since(start).Seconds()
	setup.end()
	if r.setupOnly {
		return nil
	}

	per := r.rounds * r.roundOps / serveTenants
	for _, t := range r.tenants {
		t.t0 = make([]time.Duration, 0, per)
		t.opMs = make([]float64, 0, per)
		for k := range t.scripts {
			sc := &t.scripts[k]
			sc.ops = append(make([]serve.ScriptOp, 0, len(sc.ops)+per), sc.ops...)
			sc.hashes = append(make([]uint64, 0, len(sc.hashes)+per), sc.hashes...)
		}
	}

	runtime.ReadMemStats(&r.mem[0])
	if r.onSection != nil {
		r.onSection(true)
	}
	r.sectionStart = time.Now()
	err = r.moves(per, true)
	r.sectionEnd = time.Since(r.sectionStart)
	if r.onSection != nil {
		r.onSection(false)
	}
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&r.mem[1])
	r.stats = srv.Stats()
	return nil
}

// pooled merges the tenants' timed moves in start order.
func (r *serveRun) pooled() (t0 []time.Duration, opMs []float64) {
	type rec struct {
		t0 time.Duration
		ms float64
	}
	var all []rec
	for _, t := range r.tenants {
		for i := range t.t0 {
			all = append(all, rec{t.t0[i], t.opMs[i]})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].t0 < all[b].t0 })
	for _, x := range all {
		t0 = append(t0, x.t0)
		opMs = append(opMs, x.ms)
	}
	return t0, opMs
}

// replay is the serve oracle: every tenant's script, replayed through
// serve.Standalone on a private world, must reproduce the daemon's
// hashes bit for bit.  It returns the moves attempted and failed, and
// Standalone's wall time per move net of world start-up.
func (r *serveRun) replay() (attempted, failed int, perMoveMs float64, err error) {
	var busy time.Duration
	for _, t := range r.tenants {
		for k, sc := range t.scripts {
			p := servePairs[k]
			at := time.Now()
			if _, err := serve.Standalone(p.src, p.dst, nil); err != nil {
				return 0, 0, 0, err
			}
			idle := time.Since(at)
			at = time.Now()
			ref, err := serve.Standalone(p.src, p.dst, sc.ops)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("standalone replay of %s: %w", p.name, err)
			}
			busy += time.Since(at) - idle
			attempted += len(sc.ops)
			for i := range sc.ops {
				if i >= len(ref) || ref[i].Hash != sc.hashes[i] {
					failed++
				}
			}
		}
	}
	return attempted, failed, ms(busy) / float64(attempted), nil
}
