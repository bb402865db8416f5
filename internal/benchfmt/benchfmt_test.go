package benchfmt

import (
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: metachaos
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkTable5-8            	       3	 400000000 ns/op	     12.3 sched-vms@2	 1000000 B/op	    5000 allocs/op
BenchmarkTable5-8            	       3	 380000000 ns/op	     12.3 sched-vms@2	 1000000 B/op	    5000 allocs/op
BenchmarkMovePack-8          	     100	   1000000 ns/op	    2048 B/op	       0 allocs/op
BenchmarkMoveOverlap-8       	      50	   2000000 ns/op	    4096 B/op	       2 allocs/op
PASS
ok  	metachaos	12.3s
`

func parseSample(t *testing.T) *Report {
	t.Helper()
	rep, err := ParseGotest(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatalf("ParseGotest: %v", err)
	}
	return rep
}

func TestParseGotest(t *testing.T) {
	rep := parseSample(t)
	if rep.Pkg != "metachaos" {
		t.Errorf("pkg = %q", rep.Pkg)
	}
	if rep.CPU == "" {
		t.Error("cpu not captured")
	}
	if len(rep.Results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkTable5" || r.Iterations != 3 || r.NsPerOp != 400000000 {
		t.Errorf("first result = %+v", r)
	}
	if r.Metrics["sched-vms@2"] != 12.3 {
		t.Errorf("custom metric lost: %v", r.Metrics)
	}
	if r.AllocsPerOp != 5000 || r.BytesPerOp != 1000000 {
		t.Errorf("memory columns lost: %+v", r)
	}
}

func TestBestTakesMinimumRun(t *testing.T) {
	best := parseSample(t).Best()
	if got := best["BenchmarkTable5"].NsPerOp; got != 380000000 {
		t.Errorf("Best ns/op = %g, want the 380000000 run", got)
	}
	if len(best) != 3 {
		t.Errorf("Best has %d names, want 3", len(best))
	}
}

func TestDiffPassesWithinThreshold(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	// +5% everywhere stays under the 10% gate.
	for i := range cur.Results {
		cur.Results[i].NsPerOp *= 1.05
	}
	d := Diff(base, cur, nil, 0.10)
	if !d.OK() {
		t.Fatalf("5%% drift flagged: %v %v", d.Regressions, d.Missing)
	}
	if len(d.Compared) != 3 {
		t.Errorf("compared %d benchmarks, want 3", len(d.Compared))
	}
}

func TestDiffFlagsSyntheticTwoXRegression(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	for i := range cur.Results {
		if cur.Results[i].Name == "BenchmarkMovePack" {
			cur.Results[i].NsPerOp *= 2
		}
	}
	d := Diff(base, cur, nil, 0.10)
	if len(d.Regressions) != 1 {
		t.Fatalf("regressions = %v, want exactly the 2x MovePack", d.Regressions)
	}
	g := d.Regressions[0]
	if g.Name != "BenchmarkMovePack" || g.Metric != "ns/op" {
		t.Errorf("flagged %+v", g)
	}
}

func TestDiffFlagsAnyAllocIncrease(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	for i := range cur.Results {
		if cur.Results[i].Name == "BenchmarkMovePack" {
			cur.Results[i].AllocsPerOp++ // 0 -> 1: tiny, but deterministic
		}
	}
	d := Diff(base, cur, nil, 0.10)
	if len(d.Regressions) != 1 || d.Regressions[0].Metric != "allocs/op" {
		t.Fatalf("regressions = %v, want one allocs/op violation", d.Regressions)
	}
}

func TestDiffAllocSlackCoversRuntimeJitter(t *testing.T) {
	// Benchmarks that spawn simulated worlds see a few tens of
	// nondeterministic runtime-internal allocations between runs; the
	// slack absorbs that without letting a real leak (at least one alloc
	// per op element, i.e. thousands) through.
	mk := func(allocs float64) *Report {
		r := parseSample(t)
		for i := range r.Results {
			if r.Results[i].Name == "BenchmarkTable5" {
				r.Results[i].AllocsPerOp = allocs
			}
		}
		return r
	}
	base := mk(91_020_248)
	if d := Diff(base, mk(91_020_294), nil, 0.10); !d.OK() {
		t.Errorf("+46 allocs on a 91M base flagged as regression: %v", d.Regressions)
	}
	if d := Diff(base, mk(91_021_000), nil, 0.10); d.OK() {
		t.Error("+752 allocs on a 91M base (beyond slack) not flagged")
	}
	// ScheduleRepair/rebuild's measured wander around its 189263 baseline
	// passes; twice the widest spread seen does not.
	base = mk(189_263)
	if d := Diff(base, mk(189_278), nil, 0.10); !d.OK() {
		t.Errorf("+15 allocs on a 189k base flagged as regression: %v", d.Regressions)
	}
	if d := Diff(base, mk(189_311), nil, 0.10); d.OK() {
		t.Error("+48 allocs on a 189k base (beyond slack) not flagged")
	}
}

func TestDiffFlagsMissingBenchmark(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	kept := cur.Results[:0]
	for _, r := range cur.Results {
		if r.Name != "BenchmarkMoveOverlap" {
			kept = append(kept, r)
		}
	}
	cur.Results = kept
	d := Diff(base, cur, regexp.MustCompile(`Table5|MovePack|MoveOverlap`), 0.10)
	if d.OK() || len(d.Missing) != 1 || d.Missing[0] != "BenchmarkMoveOverlap" {
		t.Fatalf("missing = %v, want [BenchmarkMoveOverlap]", d.Missing)
	}
}

func TestDiffFilter(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	for i := range cur.Results {
		cur.Results[i].NsPerOp *= 10 // everything regresses...
	}
	d := Diff(base, cur, regexp.MustCompile(`^BenchmarkTable5$`), 0.10)
	if len(d.Regressions) != 1 || d.Regressions[0].Name != "BenchmarkTable5" {
		t.Fatalf("filter leaked: %v", d.Regressions) // ...but only Table5 is gated
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rep := parseSample(t)
	var buf strings.Builder
	if err := rep.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(back.Results) != len(rep.Results) || back.CPU != rep.CPU {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Results[0].Metrics["sched-vms@2"] != 12.3 {
		t.Errorf("metrics lost in round trip")
	}
}

func TestParseLineRecordsProcs(t *testing.T) {
	r, ok := ParseLine("BenchmarkFigure10Parallel-4   3   916217565 ns/op   0.904 speedup@4")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkFigure10Parallel" || r.Procs != 4 {
		t.Errorf("got name %q procs %d, want stripped name and procs 4", r.Name, r.Procs)
	}
	if r.Metrics["speedup@4"] != 0.904 {
		t.Errorf("speedup metric lost: %v", r.Metrics)
	}
	r, _ = ParseLine("BenchmarkTable5   10   1000 ns/op")
	if r.Procs != 1 {
		t.Errorf("suffix-less line: procs %d, want 1", r.Procs)
	}
}

func TestCPUSweepKeepsVariantsApart(t *testing.T) {
	out := `BenchmarkFigure10Parallel     	3	900 ns/op	1.0 speedup@1
BenchmarkFigure10Parallel-2   	3	600 ns/op	1.5 speedup@2
BenchmarkFigure10Parallel-4   	3	300 ns/op	3.0 speedup@4
BenchmarkTable5-4             	10	1000 ns/op
`
	rep, err := ParseGotest(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	best := rep.Best()
	if len(best) != 4 {
		t.Fatalf("sweep collapsed: %d distinct results, want 4: %v", len(best), best)
	}
	r, ok := best["BenchmarkFigure10Parallel/cpu=2"]
	if !ok || r.Metrics["speedup@2"] != 1.5 {
		t.Errorf("cpu=2 variant missing or wrong: %+v", best)
	}
	// A benchmark run at a single GOMAXPROCS keeps its plain name, so
	// old snapshots stay diffable against new ones.
	if _, ok := best["BenchmarkTable5"]; !ok {
		t.Errorf("single-procs benchmark renamed: %v", best)
	}
}

func TestHostMetadataRoundTrip(t *testing.T) {
	rep := &Report{HostCPUs: 8, MpsimShards: "4", Results: []Result{{Name: "B", Iterations: 1, NsPerOp: 1}}}
	var buf strings.Builder
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.HostCPUs != 8 || back.MpsimShards != "4" {
		t.Errorf("host metadata lost: %+v", back)
	}
}
