package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestFigure10ChromeTraceGolden pins the Chrome trace of a small
// Figure-10 run byte for byte: the simulator is deterministic and the
// exporter iterates no maps, so any diff is a real behavior change —
// in the workload, the instrumentation points, or the export format.
func TestFigure10ChromeTraceGolden(t *testing.T) {
	assertFigure10GoldenTrace(t)
}

// assertFigure10GoldenTrace profiles the small Figure-10 run and pins
// its Chrome trace against testdata/figure10_trace.json byte for byte.
// Shared with the sharding fallback regression test.
func assertFigure10GoldenTrace(t *testing.T) {
	t.Helper()
	tr := obs.NewTracer()
	b := RunClientServer(CSConfig{ClientProcs: 1, ServerProcs: 2, Vectors: 1, Obs: tr})
	if b.Total() <= 0 {
		t.Fatalf("profiled run reports non-positive total time %g", b.Total())
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open after the run", n)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	// The export must be valid trace-event JSON with sane events before
	// it is worth pinning.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string   `json:"name"`
			Phase string   `json:"ph"`
			TS    float64  `json:"ts"`
			Dur   *float64 `json:"dur"`
			TID   int      `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	spans, threads := 0, map[int]bool{}
	for _, ev := range doc.TraceEvents {
		threads[ev.TID] = true
		switch ev.Phase {
		case "X":
			spans++
			if ev.TS < 0 || ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("span %q has ts %g dur %v", ev.Name, ev.TS, ev.Dur)
			}
		case "M", "i":
		default:
			t.Fatalf("unexpected event phase %q", ev.Phase)
		}
	}
	if spans == 0 {
		t.Fatal("trace has no complete spans")
	}
	// 1 client process + 2 server processes.
	if len(threads) != 3 {
		t.Errorf("trace covers %d threads, want 3", len(threads))
	}

	golden := filepath.Join("testdata", "figure10_trace.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("updating golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace differs from %s (%d bytes vs %d); rerun with -update if the change is intended",
			golden, buf.Len(), len(want))
	}
}

// TestFigure10ProfileIsDeterministic runs the profile twice and
// requires identical exports — the property the golden test (and every
// chaos-seed pin in the repo) rests on.
func TestFigure10ProfileIsDeterministic(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		tr := obs.NewTracer()
		RunClientServer(CSConfig{ClientProcs: 1, ServerProcs: 2, Vectors: 1, Obs: tr})
		if err := tr.WriteChromeTrace(&bufs[i]); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Error("two identical profile runs produced different traces")
	}
}

// TestProfileSectionPhaseTotalsMatchMakespan checks the tracer against
// the simulator's own accounting: the makespan gauge must equal the
// run's virtual end time, and every span must fit inside it.
func TestProfileSectionPhaseTotalsMatchMakespan(t *testing.T) {
	tr := obs.NewTracer()
	mpsim.Run(mpsim.Config{
		Machine:  mpsim.SP2(),
		Obs:      tr,
		Programs: []mpsim.ProgramSpec{{Name: "spmd", Procs: 4, Body: ProfileSection(64, 2)}},
	})
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open after the run", n)
	}
	makespan, ok := tr.MetricsRegistry().Gauge("mpsim.makespan_seconds").Value()
	if !ok || makespan <= 0 {
		t.Fatalf("makespan gauge = %g, set %v", makespan, ok)
	}
	for _, v := range tr.Spans() {
		if v.End > makespan*(1+1e-12) {
			t.Fatalf("span %q on rank %d ends at %g, after the %g makespan", v.Name, v.Rank, v.End, makespan)
		}
		if v.End < v.Start {
			t.Fatalf("span %q on rank %d runs backwards", v.Name, v.Rank)
		}
	}
	// The move spans' durations must agree with the aggregated phase
	// totals (same data through two code paths).
	var moveSum float64
	for _, v := range tr.Spans() {
		if v.Name == "move" {
			moveSum += v.Duration()
		}
	}
	var moveTotal float64
	for _, pt := range tr.PhaseTotals() {
		if pt.Name == "move" {
			moveTotal = pt.Seconds
		}
	}
	if math.Abs(moveSum-moveTotal) > 1e-9*math.Max(moveSum, 1) {
		t.Errorf("move spans sum to %g but PhaseTotals reports %g", moveSum, moveTotal)
	}
}
