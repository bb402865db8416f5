// Package benchfmt is the shared benchmark-record format: parsing
// `go test -bench -benchmem` text into structured results, reading and
// writing the repository's BENCH_<date>.json snapshots, and diffing
// two snapshots for performance regressions.  cmd/mcbench records
// snapshots with it and cmd/benchdiff gates CI on them.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Procs is the GOMAXPROCS the benchmark ran at (go test's -N name
	// suffix; 1 when absent).  A -cpu sweep records one Result per
	// value, distinguished by name (see ParseGotest).
	Procs       int                `json:"procs,omitempty"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is one full benchmark snapshot.
type Report struct {
	Go  string `json:"go,omitempty"`
	Pkg string `json:"pkg,omitempty"`
	CPU string `json:"cpu,omitempty"`
	// HostCPUs and MpsimShards describe the host shape the snapshot
	// was recorded on: the machine's logical CPU count and the
	// MPSIM_SHARDS setting in effect ("" = automatic resolution).
	// cmd/benchdiff prints them so snapshots from different hosts are
	// comparable at a glance.
	HostCPUs    int    `json:"host_cpus,omitempty"`
	MpsimShards string `json:"mpsim_shards,omitempty"`
	// Notes are free-form annotations about how the snapshot was
	// recorded (e.g. "single-cpu host: parallel speedup not measured").
	// Diff ignores them.
	Notes   []string `json:"notes,omitempty"`
	Results []Result `json:"results"`
	// Serve, when present, is the coupling-service load summary the
	// snapshot was recorded with (cmd/mcload -snapshot).  It rides
	// along as metadata: Diff ignores it.
	Serve *ServeSummary `json:"serve,omitempty"`
}

// ServeSummary is one cmd/mcload run against a live mcserved daemon,
// recorded alongside the micro-benchmarks so a snapshot also captures
// the service's throughput shape on the host.
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
	// Backpressure counts moves the daemon refused under admission
	// control (mcload retries them).
	Backpressure int64 `json:"backpressure"`
	// Verified is true when every tenant's result hashes matched a
	// standalone replay of its coupling scripts.
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
// host-independent — two snapshots disagree here only if scheduling or
// batching actually changed.
type TenantMoveLatency struct {
	Tenant int     `json:"tenant"`
	Moves  int64   `json:"moves"`
	P50    float64 `json:"p50_vsec"`
	P95    float64 `json:"p95_vsec"`
	P99    float64 `json:"p99_vsec"`
}

// ParseGotest reads `go test -bench -benchmem` text output.  Repeated
// names (from -count N) all land in Results; Best collapses them.
func ParseGotest(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"):
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := ParseLine(line); ok {
				rep.Results = append(rep.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	splitCPUVariants(rep)
	return rep, nil
}

// splitCPUVariants renames benchmarks that a -cpu sweep ran at more
// than one GOMAXPROCS to "name/cpu=N", so Best and Diff keep the
// variants apart instead of collapsing the sweep to its fastest run.
// Single-procs benchmarks keep their plain name, which keeps old
// snapshots and new ones diffable.
func splitCPUVariants(rep *Report) {
	procs := map[string]int{} // name -> first procs seen, -1 = several
	for _, r := range rep.Results {
		if p, ok := procs[r.Name]; ok && p != r.Procs {
			procs[r.Name] = -1
		} else if !ok {
			procs[r.Name] = r.Procs
		}
	}
	for i, r := range rep.Results {
		if procs[r.Name] == -1 {
			rep.Results[i].Name = fmt.Sprintf("%s/cpu=%d", r.Name, r.Procs)
		}
	}
}

// ParseLine decodes one benchmark result line: a name, the iteration
// count, then (value, unit) pairs.
func ParseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	// Strip the -<GOMAXPROCS> suffix go test appends to names, but
	// keep the value: it is the run's host-parallelism metadata.
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters, Procs: procs}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = val
		case "allocs/op":
			r.AllocsPerOp = val
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = val
		}
	}
	return r, true
}

// Read decodes a JSON snapshot.
func Read(r io.Reader) (*Report, error) {
	rep := &Report{}
	if err := json.NewDecoder(r).Decode(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// ReadFile loads a JSON snapshot from disk.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rep, nil
}

// Write encodes the report as indented JSON.
func (rep *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Best collapses repeated names (a -count N run) to one Result per
// name, keeping each name's minimum-ns/op run whole.  Minimum is the
// standard scheduler-noise reducer: a benchmark can only be slowed
// down by interference, never sped up.
func (rep *Report) Best() map[string]Result {
	best := make(map[string]Result, len(rep.Results))
	for _, r := range rep.Results {
		prev, ok := best[r.Name]
		if !ok || r.NsPerOp < prev.NsPerOp {
			best[r.Name] = r
		}
	}
	return best
}

// Regression is one gate violation found by Diff.
type Regression struct {
	Name   string
	Metric string // "ns/op" or "allocs/op"
	Base   float64
	New    float64
}

func (g Regression) String() string {
	if g.Metric == "allocs/op" {
		return fmt.Sprintf("%s: allocs/op %v -> %v (grew beyond jitter slack)", g.Name, g.Base, g.New)
	}
	return fmt.Sprintf("%s: ns/op %.0f -> %.0f (%+.1f%%)", g.Name, g.Base, g.New, 100*(g.New/g.Base-1))
}

// Comparison is one benchmark's base-vs-current numbers.
type Comparison struct {
	Name                  string
	BaseNs, NewNs         float64
	BaseAllocs, NewAllocs float64
}

// DiffResult is the outcome of comparing two snapshots.
type DiffResult struct {
	// Compared lists every benchmark present in both snapshots, in
	// base-snapshot order.
	Compared []Comparison
	// Missing lists benchmarks the baseline has (and the filter
	// matches) that the current run lacks — a gate that silently stops
	// covering a benchmark is itself a failure.
	Missing []string
	// Regressions holds the violations: ns/op beyond the ratio, or
	// allocs/op growth beyond the runtime-jitter slack.
	Regressions []Regression
}

// OK reports whether the gate passes.
func (d *DiffResult) OK() bool { return len(d.Regressions) == 0 && len(d.Missing) == 0 }

// allocSlack is the allocs/op growth tolerated before the gate fires.
// Workload allocations are deterministic, but a benchmark that spawns
// simulated worlds sees a few tens of runtime-internal allocations
// (goroutine stacks, sync.Pool refills, map growth timing) come and go
// between identical runs — an additive jitter, whatever the workload's
// own count.  Sized from 24 runs of the commit the baseline records:
// ScheduleRepair/rebuild wandered 189254..189278 around its recorded
// 189263 (spread 24, 1.3e-4) and Table5 91019528..91019605 (spread 77,
// 8.5e-7).  The rate covers the first with margin and rounds to zero
// below 5000 allocs/op — there any increase still fails — and the cap
// keeps the big benchmarks' slack in the tens, orders of magnitude
// below a real leak's one alloc per op element.
func allocSlack(base float64) float64 { return min(base*2e-4, 128) }

// Diff compares cur against base over the benchmarks whose name
// matches match (nil matches all).  A benchmark regresses when its
// ns/op exceeds the baseline by more than maxRatio (0.10 = +10%), or
// when its allocs/op grows beyond the runtime-jitter slack (see
// allocSlack) — below 5000 allocs/op that means any increase at all.
func Diff(base, cur *Report, match *regexp.Regexp, maxRatio float64) *DiffResult {
	baseBest, curBest := base.Best(), cur.Best()
	d := &DiffResult{}
	seen := map[string]bool{}
	for _, r := range base.Results {
		if seen[r.Name] || (match != nil && !match.MatchString(r.Name)) {
			continue
		}
		seen[r.Name] = true
		b := baseBest[r.Name]
		c, ok := curBest[r.Name]
		if !ok {
			d.Missing = append(d.Missing, r.Name)
			continue
		}
		d.Compared = append(d.Compared, Comparison{
			Name:   r.Name,
			BaseNs: b.NsPerOp, NewNs: c.NsPerOp,
			BaseAllocs: b.AllocsPerOp, NewAllocs: c.AllocsPerOp,
		})
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+maxRatio) {
			d.Regressions = append(d.Regressions, Regression{
				Name: r.Name, Metric: "ns/op", Base: b.NsPerOp, New: c.NsPerOp,
			})
		}
		if c.AllocsPerOp > b.AllocsPerOp+allocSlack(b.AllocsPerOp) {
			d.Regressions = append(d.Regressions, Regression{
				Name: r.Name, Metric: "allocs/op", Base: b.AllocsPerOp, New: c.AllocsPerOp,
			})
		}
	}
	return d
}
