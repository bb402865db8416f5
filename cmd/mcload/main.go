// Command mcload drives a live mcserved daemon: N tenant sessions ×
// M couplings each, streaming Move/MoveAdd/MoveReverse traffic with a
// steady or churning session profile.  Couplings are drawn from a
// fixed catalog shared by every tenant, so the daemon's cross-tenant
// schedule cache gets real reuse; with -check each tenant replays its
// op sequences through serve.Model and demands bit-identical result
// hashes — what the multiplexed daemon lands must be what the
// linearization definition says lands.
//
//	mcload -network unix -addr /tmp/mcserved.sock -tenants 4 -moves 32 -check
//
// With -chaos R every tenant connection injects seeded wire faults
// (dropped and torn frames, lost replies, stalls) at rate R per I/O;
// the clients reconnect, resume their leased sessions and retry, and
// -check still demands bit-identical hashes.  -catalog big swaps in
// soak-scale pairs whose resident worlds cross the auto-sharding
// threshold (256 union ranks).
//
//	mcload -addr /tmp/mcserved.sock -tenants 4 -moves 32 -chaos 0.05 -check
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"metachaos/internal/serve"
)

// ServeSummary is one run against a live mcserved daemon, the object
// -json prints.
type ServeSummary struct {
	// Tenants is the number of concurrent client sessions.
	Tenants int `json:"tenants"`
	// Couplings is how many couplings each tenant cycled through.
	Couplings int `json:"couplings"`
	// Moves is the total moves executed across all tenants.
	Moves int64 `json:"moves"`
	// MovesPerSec is wall-clock throughput (real time, not virtual).
	MovesPerSec float64 `json:"moves_per_sec"`
	// CacheHitRate is the daemon's schedule-cache hit rate over
	// coupling opens: warm opens / total opens.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// OpsPerBatch is the daemon's mean tenant ops per world broadcast.
	OpsPerBatch float64 `json:"ops_per_batch"`
	// WindowExpired counts batches the dispatcher's flush window closed
	// because a member session had gone quiet; a complete batch ships
	// without waiting.
	WindowExpired int64 `json:"batch_window_expired"`
	// Backpressure counts moves the daemon refused under admission
	// control (mcload retries them).
	Backpressure int64 `json:"backpressure"`
	// Verified is true when every tenant's result hashes matched a
	// serve.Model replay of its coupling scripts.
	Verified bool `json:"verified"`
	// Reconnects and OpRetries count client-side fault recovery during
	// the run: sessions re-established after a lost connection, and ops
	// resent after a world respawn.  Zero in a fault-free run; nonzero
	// only under -chaos or real failures.
	Reconnects int64 `json:"reconnects,omitempty"`
	OpRetries  int64 `json:"op_retries,omitempty"`
	// MoveLatency is each tenant's virtual-time move-latency profile
	// (the daemon leader's per-op cost, serve.MoveStats.Cost), one
	// entry per tenant in tenant order.
	MoveLatency []TenantMoveLatency `json:"move_latency,omitempty"`
}

// TenantMoveLatency summarizes one tenant's move latencies in virtual
// seconds: nearest-rank percentiles over the daemon-reported cost of
// every move the tenant executed.  Virtual time makes the numbers
// host-independent — two runs disagree here only if scheduling or
// batching actually changed.
type TenantMoveLatency struct {
	Tenant int     `json:"tenant"`
	Moves  int64   `json:"moves"`
	P50    float64 `json:"p50_vsec"`
	P95    float64 `json:"p95_vsec"`
	P99    float64 `json:"p99_vsec"`
}

// pair is one catalog entry: a coupling both sides of which every
// tenant declares identically (identical declarations are what make
// schedules shareable).
type pair struct {
	name     string
	src, dst serve.DistSpec
}

// catalog is the pair mix in effect for the run; -catalog selects it.
var catalog []pair

// stdCatalog is the default library/layout mix: HPF-to-Parti vectors,
// a 2-D redistribution, and a multi-word pC++ collection.
var stdCatalog = []pair{
	{
		name: "vec-hpf-parti",
		src:  serve.DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{240}, Procs: 3},
		dst:  serve.DistSpec{Library: "mbparti", Layout: "blockvec", Shape: []int{240}, Procs: 2},
	},
	{
		name: "mat-parti-hpf",
		src:  serve.DistSpec{Library: "mbparti", Layout: "block2d", Shape: []int{16, 16}, Procs: 3},
		dst:  serve.DistSpec{Library: "hpfrt", Layout: "rowblock", Shape: []int{16, 16}, Procs: 2},
	},
	{
		name: "coll-pcxx",
		src:  serve.DistSpec{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{120}, Procs: 3, ElemWords: 2},
		dst:  serve.DistSpec{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{120}, Procs: 2, ElemWords: 2},
	},
}

// bigCatalog is the soak-scale mix: both pairs stand up 256-union-rank
// resident worlds, which crosses the scheduler's auto-sharding
// threshold — the nightly soak drives it to prove the sharded daemon
// path lands what serve.Model predicts.
var bigCatalog = []pair{
	{
		name: "vec-hpf-parti-256",
		src:  serve.DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{8192}, Procs: 160},
		dst:  serve.DistSpec{Library: "mbparti", Layout: "blockvec", Shape: []int{8192}, Procs: 96},
	},
	{
		name: "vec-parti-hpf-256",
		src:  serve.DistSpec{Library: "mbparti", Layout: "blockvec", Shape: []int{8192}, Procs: 96},
		dst:  serve.DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{8192}, Procs: 160},
	},
}

// moveKinds is the op mix, cycled per move index.
var moveKinds = []int{serve.OpMove, serve.OpMoveAdd, serve.OpMove, serve.OpMoveReverse}

// instance is one open-to-close life of a coupling: the ops it ran and
// the daemon's hash for each.  MoveAdd accumulates into the coupling's
// objects, so verification replays per instance — a churned reopen
// starts from fresh storage and therefore a fresh instance.
type instance struct {
	pair   int
	ops    []serve.ScriptOp
	hashes []uint64
}

type tenantResult struct {
	moves      int64
	retries    int64
	reconnects int64
	opRetries  int64
	err        error
	instances  []*instance
	// costs is the daemon leader's virtual-time cost of each move, in
	// execution order; the summary folds them into percentiles.
	costs []float64
}

func main() {
	var (
		network   = flag.String("network", "unix", "daemon network: unix or tcp")
		addr      = flag.String("addr", "/tmp/mcserved.sock", "daemon address")
		tenants   = flag.Int("tenants", 4, "concurrent tenant sessions")
		couplings = flag.Int("couplings", 0, "couplings per tenant (0 = the whole catalog; capped at the catalog size)")
		moves     = flag.Int("moves", 24, "moves per tenant")
		seed      = flag.Int64("seed", 1, "base fill seed (pins the whole run)")
		profile   = flag.String("profile", "steady", "session profile: steady (hold couplings) or churn (reopen per move)")
		check     = flag.Bool("check", false, "replay every tenant's ops through serve.Model and compare hashes")
		catName   = flag.String("catalog", "std", "coupling catalog: std or big (soak-scale 256-rank sharded worlds)")
		chaos     = flag.Float64("chaos", 0, "wire-chaos fault rate per I/O (drops, torn writes, lost replies, stalls)")
		chaosSeed = flag.Uint64("chaos-seed", 1, "base seed for deterministic chaos (per-tenant streams derive from it)")
		jsonOut   = flag.Bool("json", false, "print the summary as ServeSummary JSON")
	)
	flag.Parse()
	if *profile != "steady" && *profile != "churn" {
		fmt.Fprintf(os.Stderr, "mcload: unknown -profile %q\n", *profile)
		os.Exit(2)
	}
	switch *catName {
	case "std":
		catalog = stdCatalog
	case "big":
		catalog = bigCatalog
	default:
		fmt.Fprintf(os.Stderr, "mcload: unknown -catalog %q\n", *catName)
		os.Exit(2)
	}
	if *couplings < 1 || *couplings > len(catalog) {
		*couplings = len(catalog)
	}
	var chaosCfg *serve.ChaosConfig
	if *chaos > 0 {
		chaosCfg = &serve.ChaosConfig{Seed: *chaosSeed, Rate: *chaos}
	}

	start := time.Now()
	results := make([]tenantResult, *tenants)
	var wg sync.WaitGroup
	for t := 0; t < *tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			results[t] = runTenant(t, *network, *addr, *couplings, *moves, *seed, *profile, chaosCfg)
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total, retries, reconnects, opRetries int64
	for t := range results {
		if err := results[t].err; err != nil {
			fmt.Fprintf(os.Stderr, "mcload: tenant %d: %v\n", t, err)
			os.Exit(1)
		}
		total += results[t].moves
		retries += results[t].retries
		reconnects += results[t].reconnects
		opRetries += results[t].opRetries
	}

	// One extra session reads the daemon's stats.
	stats := fetchStats(*network, *addr)

	verified := false
	if *check {
		if err := verify(results); err != nil {
			fmt.Fprintf(os.Stderr, "mcload: VERIFY FAILED: %v\n", err)
			os.Exit(1)
		}
		verified = true
	}

	sum := ServeSummary{
		Tenants:       *tenants,
		Couplings:     *couplings,
		Moves:         total,
		MovesPerSec:   float64(total) / elapsed.Seconds(),
		CacheHitRate:  stats["serve_cache_hit_rate"],
		Backpressure:  int64(stats["serve_backpressure_total"]),
		WindowExpired: int64(stats["serve_batch_window_expired_total"]),
		Verified:      verified,
		Reconnects:    reconnects,
		OpRetries:     opRetries,
	}
	if b := stats["serve_batches_total"]; b > 0 {
		sum.OpsPerBatch = stats["serve_batched_ops_total"] / b
	}
	for t := range results {
		sum.MoveLatency = append(sum.MoveLatency, tenantLatency(t, results[t].costs))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(&sum)
	} else {
		fmt.Printf("mcload: tenants=%d couplings=%d moves=%d moves/sec=%.1f cache_hit_rate=%.2f ops_per_batch=%.2f batch_window_expired=%d backpressure=%d reconnects=%d op_retries=%d verified=%v\n",
			sum.Tenants, sum.Couplings, sum.Moves, sum.MovesPerSec, sum.CacheHitRate,
			sum.OpsPerBatch, sum.WindowExpired, sum.Backpressure, sum.Reconnects, sum.OpRetries, sum.Verified)
		for _, tl := range sum.MoveLatency {
			fmt.Printf("mcload: tenant %d move latency (vsec): p50=%.6f p95=%.6f p99=%.6f over %d moves\n",
				tl.Tenant, tl.P50, tl.P95, tl.P99, tl.Moves)
		}
	}
}

// runTenant runs one session's whole life against the daemon.
func runTenant(t int, network, addr string, couplings, moves int, seed int64, profile string, chaos *serve.ChaosConfig) (res tenantResult) {
	opts := serve.DialOptions{Network: network, Addr: addr, Tenant: fmt.Sprintf("tenant-%d", t)}
	if chaos != nil {
		// Each tenant gets its own decision stream so faults decorrelate.
		cfg := *chaos
		cfg.Seed += uint64(t) * 0x1000
		opts.Chaos = &cfg
	}
	c, err := serve.DialWith(opts)
	if err != nil {
		res.err = err
		return res
	}
	defer c.Close()
	// Named return: these run after every return statement below, so the
	// summary sees the final recovery counts whichever way the run ends.
	defer func() {
		res.reconnects = int64(c.Reconnects())
		res.opRetries = int64(c.Retries())
	}()

	// Register both sides of every catalog pair once: dist id 2k is
	// pair k's source, 2k+1 its destination.
	for k, p := range catalog {
		if err := c.RegisterDist(2*k, p.src); err == nil {
			err = c.RegisterDist(2*k+1, p.dst)
		}
		if err != nil {
			res.err = fmt.Errorf("register %s: %w", p.name, err)
			return res
		}
	}
	live := make(map[int]*instance)
	ensureOpen := func(k int) (*instance, error) {
		if inst, ok := live[k]; ok {
			return inst, nil
		}
		if _, _, err := c.OpenCoupling(k, 2*k, 2*k+1); err != nil {
			return nil, err
		}
		inst := &instance{pair: k}
		live[k] = inst
		res.instances = append(res.instances, inst)
		return inst, nil
	}

	for m := 0; m < moves; m++ {
		k := (t + m) % couplings
		inst, err := ensureOpen(k)
		if err != nil {
			res.err = fmt.Errorf("open %s: %w", catalog[k].name, err)
			return res
		}
		kind := moveKinds[m%len(moveKinds)]
		mseed := seed + int64(t)*1000 + int64(m)
		var st serve.MoveStats
		for {
			st, err = c.Move(k, kind, mseed)
			if err != nil && errors.Is(err, serve.ErrBackpressure) {
				res.retries++
				time.Sleep(time.Millisecond)
				continue
			}
			break
		}
		if err != nil {
			res.err = fmt.Errorf("move on %s: %w", catalog[k].name, err)
			return res
		}
		res.moves++
		res.costs = append(res.costs, st.Cost)
		inst.ops = append(inst.ops, serve.ScriptOp{Kind: kind, Seed: mseed})
		inst.hashes = append(inst.hashes, st.Hash)
		if profile == "churn" {
			if err := c.CloseCoupling(k); err != nil {
				res.err = fmt.Errorf("close %s: %w", catalog[k].name, err)
				return res
			}
			delete(live, k)
		}
	}
	return res
}

// verify replays every coupling instance through serve.Model, the
// position-indexed reference that shares none of the daemon's result
// code, and compares hashes move by move.
func verify(results []tenantResult) error {
	for t := range results {
		for _, inst := range results[t].instances {
			p := catalog[inst.pair]
			m, err := serve.NewModel(p.src, p.dst)
			if err != nil {
				return fmt.Errorf("model of %s: %w", p.name, err)
			}
			for i, so := range inst.ops {
				if want := m.Move(so.Kind, so.Seed); inst.hashes[i] != want {
					return fmt.Errorf("tenant %d %s move %d: served hash %016x != model %016x",
						t, p.name, i, inst.hashes[i], want)
				}
			}
		}
	}
	return nil
}

// tenantLatency folds one tenant's per-move virtual-time costs into
// nearest-rank percentiles.
func tenantLatency(t int, costs []float64) TenantMoveLatency {
	tl := TenantMoveLatency{Tenant: t, Moves: int64(len(costs))}
	if len(costs) == 0 {
		return tl
	}
	sorted := append([]float64(nil), costs...)
	sort.Float64s(sorted)
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	tl.P50, tl.P95, tl.P99 = rank(0.50), rank(0.95), rank(0.99)
	return tl
}

// fetchStats reads the daemon's counters; nil (every count zero) when
// the daemon cannot be asked.
func fetchStats(network, addr string) map[string]float64 {
	c, err := serve.Dial(network, addr, "mcload-stats")
	if err != nil {
		return nil
	}
	defer c.Close()
	// A failed read returns nil, which is the same "every count zero".
	stats, _ := c.Stats()
	return stats
}
