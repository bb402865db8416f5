package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tiny is one round of two ops behind a two-op warm-up.
var tiny = counts{rounds: 1, roundOps: 2, warmOps: 2}

// quick runs one workload at the tiny counts.
func quick(t *testing.T, workload string) *outcome {
	t.Helper()
	o := options{seed: 1997, counts: tiny, dir: t.TempDir()}
	out, err := runWorkload(workload, o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if out.failed != 0 || out.attempted < 2 {
		t.Fatalf("%s: %d of %d ops failed", workload, out.failed, out.attempted)
	}
	return out
}

// Every workload passes its checks and reports every untraced metric,
// and a second run of the same seed and op count repeats every count and
// every virtual-time number exactly.
func TestWorkloadsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a := quick(t, w)
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				if _, ok := a.v[d.name]; !ok && !tracedOnly[d.name] && inLayer(w, d.name) {
					t.Errorf("metric %s missing", d.name)
				}
			}
			for _, d := range endToEnd {
				if !(a.v[d.name] > 0) {
					t.Errorf("%s = %v, want > 0", d.name, a.v[d.name])
				}
			}
			if w == "serve-steady" {
				// Cross-tenant batch composition is not pinned, so the
				// daemon's per-move cost is not an exact repeat.
				return
			}
			b := quick(t, w)
			for _, name := range []string{"vtime_ms_per_op", "mpsim.msgs_per_op", "mpsim.kb_per_op",
				"core.move_vms.pack", "core.move_vms.wait", "core.move_bytes_copied_per_op"} {
				if a.v[name] != b.v[name] {
					t.Errorf("%s: %v then %v, want identical", name, a.v[name], b.v[name])
				}
			}
			// Over two ops a stray runtime allocation is half an
			// allocation per op, hence the absolute slack.
			const slack = 2
			if x, y := a.v["host.allocs_per_op"], b.v["host.allocs_per_op"]; math.Abs(x-y) > 1e-3*math.Max(x, y)+slack {
				t.Errorf("host.allocs_per_op: %v then %v", x, y)
			}
		})
	}
}

// Behind the warm-up BenchmarkMovePack needs, a warm move allocates
// nothing.
func TestMoveSteadyZeroAllocs(t *testing.T) {
	o := options{seed: 1997, counts: counts{rounds: 1, roundOps: 40, warmOps: 300}, dir: t.TempDir()}
	out, err := runWorkload("move-steady", o)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.v["host.allocs_per_op"]; got >= 0.5 {
		t.Errorf("move-steady allocates %v per op, want 0", got)
	}
}

// inLayer reports whether a workload measures the named metric at all:
// the daemon hides its world, and in-world workloads have no daemon.
func inLayer(workload, metric string) bool {
	serveOnly := strings.HasPrefix(metric, "serve.")
	worldOnly := strings.HasPrefix(metric, "mpsim.") || strings.HasPrefix(metric, "core.")
	if workload == "serve-steady" {
		return !worldOnly
	}
	return !serveOnly
}

// The traced run reports every per-layer metric and writes a Chrome
// trace that parses, with driver spans that name their parents.
func TestTracedRun(t *testing.T) {
	for _, w := range []string{"inspect-regular", "serve-steady"} {
		o := options{seed: 7, counts: tiny, trace: true, dir: t.TempDir()}
		out, err := runWorkload(w, o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		report(&buf, w, o, out)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res struct {
			Correct bool
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || len(res.Metrics) != len(perLayer) {
			t.Fatalf("%s: correct=%v, %d metrics, want %d", w, res.Correct, len(res.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s missing or unit %q != %q", w, d.name, m.Unit, d.unit)
			}
		}
		raw, err := os.ReadFile(traceFile(o, w))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string
				Ph   string
				Pid  int
			}
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("%s: Chrome trace does not parse: %v", w, err)
		}
		seen := map[string]bool{}
		for _, ev := range tr.TraceEvents {
			if ev.Pid == 1 && ev.Ph == "X" {
				seen[ev.Name] = true
			}
		}
		want := []string{"world", "setup", "op", "sched.build", "move", "barrier"}
		if w == "serve-steady" {
			want = []string{"world", "setup", "client.open", "client.move"}
		}
		for _, name := range want {
			if !seen[name] {
				t.Errorf("%s: no driver span %q in the trace", w, name)
			}
		}
	}
}

// An untraced run's JSON line carries exactly the end-to-end metrics.
func TestReportLine(t *testing.T) {
	out := &outcome{v: map[string]float64{}, attempted: 3}
	for _, d := range endToEnd {
		out.v[d.name] = 1.5
	}
	var buf bytes.Buffer
	report(&buf, "move-steady", options{}, out)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Errorf("result has keys %v, want correct, attempted, failed, metrics", res)
	}
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	for _, d := range perLayer {
		if !tracedOnly[d.name] && !strings.Contains(buf.String(), "metric "+d.name+" ") {
			t.Errorf("metric %s not printed", d.name)
		}
	}
}

// The API surface rule: bench may import the root package and
// internal/serve, and no other internal package.
func TestImportGuard(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "metachaos/internal/") && path != "metachaos/internal/serve" {
				t.Errorf("%s imports %s", file, path)
			}
		}
	}
}

// BENCHMARK.json and the metric tables say the same thing.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the module:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the tables have %d, %d, %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i])
		}
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound || (m.Better == "lower") != d.lower {
			t.Errorf("end_to_end %d is %+v, want %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer %d is %+v, want %+v", i, m, d)
		}
	}
}

func TestBestRound(t *testing.T) {
	// Rounds of three: the second is the quiet one; the short last round
	// does not count.
	v := []float64{9, 8, 9, 2, 7, 3, 9, 9, 9, 1, 1}
	if got := bestRound(v, 3); got != 3 {
		t.Errorf("bestRound = %v, want 3", got)
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	t0 := []time.Duration{ms(0), ms(10), ms(20), ms(30), ms(31), ms(32), ms(36), ms(40), ms(50)}
	if got := bestRate(t0, ms(90), 3); got != 500 {
		t.Errorf("bestRate = %v, want 500 (3 ops from 30 ms to 36 ms)", got)
	}
	if got := bestRate(t0[:3], ms(30), 3); got != 100 {
		t.Errorf("bestRate of a single round = %v, want 100", got)
	}
	// With 30 samples the 95th percentile has only one sample beyond it.
	all := make([]float64, 30)
	for i := range all {
		all[i] = float64(i)
	}
	if got, want := tail(all, 0.95), quantile(all, 1-10.0/30); math.Abs(got-want) > 1e-9 {
		t.Errorf("tail = %v, want %v", got, want)
	}
}

// --seconds only picks the round count: op counts are constants, and
// every workload's round and warm-up meet the floors the design sets.
func TestCounts(t *testing.T) {
	for _, w := range workloads {
		z := sizings[w]
		if z.roundOps < 40 {
			t.Errorf("%s: a round is %d ops, want at least 40", w, z.roundOps)
		}
		if float64(z.warmOps) < float64(z.opsPerS) {
			t.Errorf("%s: a warm-up of %d ops is under a second at %d ops/s", w, z.warmOps, z.opsPerS)
		}
		c := countsFor(w, options{seconds: 12})
		if c.roundOps != z.roundOps || c.warmOps != z.warmOps || c.rounds != (12*z.opsPerS+z.roundOps/2)/z.roundOps {
			t.Errorf("%s: counts for 12 s are %+v", w, c)
		}
		if c := countsFor(w, options{seconds: 0.001}); c.rounds != 1 {
			t.Errorf("%s: %d rounds for a millisecond, want 1", w, c.rounds)
		}
	}
}

// The oracle's hash is linear in the content and blind to order of
// ownership, and a lost update does not settle.
func TestOracle(t *testing.T) {
	set := sectionSet([]int{4, 6}, []int{1, 2}, []int{3, 5})
	if set.size != 6 || set.posOf(1*6+2) != 0 || set.posOf(2*6+4) != 5 || set.posOf(0) != -1 || set.posOf(1*6+5) != -1 {
		t.Fatalf("sectionSet linearizes wrongly")
	}
	idx := indexSet(5, []int32{3, 0, 4})
	if idx.posOf(0) != 1 || idx.posOf(4) != 2 || idx.posOf(2) != -1 {
		t.Fatalf("indexSet linearizes wrongly")
	}

	value := func(k int) float64 { return fillOf(11, k) }
	local := make([]float64, 24)
	sd := newSide(local, func(f func(int) float64) {
		for g := range local {
			local[len(local)-1-g] = f(g) // storage order is the library's business
		}
	}, set, 5, value)
	var ref arrayRef
	ref.want = wantOf(set, 5, value)
	ref.got.Add(sd.hash())
	if !ref.settle() {
		t.Fatal("a freshly filled side does not hash to its reference")
	}
	ref.pend.Add(sd.bump(3))
	ref.fold()
	ref.got.Add(sd.hash())
	if !ref.settle() {
		t.Fatal("a bump moved the hash by something other than its weight")
	}
	sd.local[sd.inSet[0]] += 2 // an update the reference never heard of
	ref.got.Add(sd.hash())
	if ref.settle() {
		t.Fatal("a stray update settled")
	}
	if sd.strays() != 0 {
		t.Fatal("in-set writes counted as strays")
	}
	for i, w := range sd.wt {
		if w == 0 {
			sd.local[i] = 1
			break
		}
	}
	if sd.strays() != 1 {
		t.Fatal("a write outside the set went unnoticed")
	}
}
