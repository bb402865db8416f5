package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(0, "x", 1).SetPeer(2).SetBytes(3).SetElem("float64")
	sp.End(2)
	tr.Instant(0, "i", 1)
	tr.SetRankName(0, "a")
	if tr.SpanCount() != 0 || tr.OpenSpans() != 0 || tr.Spans() != nil || tr.PhaseTotals() != nil {
		t.Fatal("nil tracer recorded something")
	}
	var buf bytes.Buffer
	if err := tr.WriteCollapsed(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer collapsed export: err=%v len=%d", err, buf.Len())
	}
	m := tr.MetricsRegistry()
	if m != nil {
		t.Fatal("nil tracer returned a registry")
	}
	m.Counter("c").Inc() // all no-ops on nil
	m.Gauge("g").Set(1)
	m.Histogram("h", DefBytesBuckets).Observe(5)
}

func TestSpanNestingAndOrdering(t *testing.T) {
	tr := NewTracer()
	outer := tr.Begin(3, "outer", 10)
	inner := tr.Begin(3, "inner", 11).SetPeer(1).SetBytes(64).SetElem("float64")
	tr.Instant(3, "tick", 11.5)
	inner.End(12)
	inner2 := tr.Begin(3, "inner", 12)
	inner2.End(14)
	outer.End(15)
	other := tr.Begin(0, "outer", 0) // an unrelated rank nests independently
	other.End(1)

	if got := tr.OpenSpans(); got != 0 {
		t.Fatalf("OpenSpans = %d, want 0", got)
	}
	views := tr.Spans()
	if len(views) != 5 {
		t.Fatalf("got %d spans, want 5", len(views))
	}
	// Record order is begin order.
	if views[0].Name != "outer" || views[1].Name != "inner" || views[2].Name != "tick" {
		t.Errorf("spans not in begin order: %+v", views[:3])
	}
	if views[1].Peer != 1 || views[1].Bytes != 64 || views[0].Peer != -1 || views[0].Bytes != -1 {
		t.Errorf("tags not recorded, or untagged not -1: %+v %+v", views[0], views[1])
	}
	if !views[2].Instant || views[2].Duration() != 0 {
		t.Errorf("instant not zero-duration: %+v", views[2])
	}
	// Children fit inside the parent on the virtual clock.
	if views[1].Start < views[0].Start || views[1].End > views[0].End {
		t.Errorf("child [%g,%g] outside parent [%g,%g]",
			views[1].Start, views[1].End, views[0].Start, views[0].End)
	}
}

func TestSpanMisuseSurfaces(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("out-of-order end", func() {
		tr := NewTracer()
		outer := tr.Begin(0, "outer", 0)
		tr.Begin(0, "inner", 1)
		outer.End(2) // inner still open
	})
	mustPanic("double end", func() {
		tr := NewTracer()
		sp := tr.Begin(0, "x", 0)
		sp.End(1)
		sp.End(2)
	})
	mustPanic("backwards clock", func() {
		tr := NewTracer()
		sp := tr.Begin(0, "x", 5)
		sp.End(4)
	})
}

func TestPhaseTotals(t *testing.T) {
	tr := NewTracer()
	a := tr.Begin(0, "pack", 0).SetBytes(100)
	a.End(2)
	b := tr.Begin(1, "pack", 1).SetBytes(50)
	b.End(2)
	c := tr.Begin(0, "unpack", 2)
	c.End(2.5)
	totals := tr.PhaseTotals()
	if len(totals) != 2 {
		t.Fatalf("got %d phases, want 2", len(totals))
	}
	if totals[0].Name != "pack" || totals[0].Count != 2 || totals[0].Seconds != 3 || totals[0].Bytes != 150 {
		t.Errorf("pack total = %+v", totals[0])
	}
	if totals[1].Name != "unpack" || totals[1].Seconds != 0.5 {
		t.Errorf("unpack total = %+v", totals[1])
	}
}

func TestMetrics(t *testing.T) {
	m := NewMetrics()
	m.Counter("sends").Add(3)
	m.Counter("sends").Inc()
	if got := m.Counter("sends").Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	m.Gauge("makespan").Set(1.5)
	if v, ok := m.Gauge("makespan").Value(); !ok || v != 1.5 {
		t.Errorf("gauge = %g,%v", v, ok)
	}
	h := m.Histogram("bytes", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	if h.Count() != 3 || h.Sum() != 5055 {
		t.Errorf("histogram count=%d sum=%g", h.Count(), h.Sum())
	}
	_, counts := h.Buckets()
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Errorf("bucket counts = %v", counts)
	}
	if names := m.CounterNames(); len(names) != 1 || names[0] != "sends" {
		t.Errorf("counter names = %v", names)
	}
}

func TestChromeTraceIsValidJSONAndDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer()
		tr.SetRankName(0, "spmd/0")
		sp := tr.Begin(0, "move", 0).SetElem("float64")
		tr.Begin(0, "move.pack", 0).SetPeer(1).SetBytes(256).End(0.001)
		tr.Instant(0, "rexmit", 0.002)
		sp.End(0.003)
		return tr
	}
	var buf1, buf2 bytes.Buffer
	if err := build().WriteChromeTrace(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("chrome trace export is not deterministic")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf1.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// thread_name metadata + 2 spans + 1 instant.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Phase != "M" || doc.TraceEvents[0].Name != "thread_name" {
		t.Errorf("first event is not thread metadata: %+v", doc.TraceEvents[0])
	}
	// Virtual seconds surface as microseconds: the instant at 2ms.
	if doc.TraceEvents[3].TS != 2000 {
		t.Errorf("timestamps not in microseconds: %+v", doc.TraceEvents)
	}
}

func TestCollapsedStacksSelfTime(t *testing.T) {
	tr := NewTracer()
	tr.SetRankName(0, "spmd/0")
	outer := tr.Begin(0, "move", 0)
	tr.Begin(0, "pack", 0).End(1) // child: 1s self
	outer.End(3)                  // outer: 3s - 1s child = 2s self
	var buf bytes.Buffer
	if err := tr.WriteCollapsed(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "spmd/0;move 2000000000\nspmd/0;move;pack 1000000000\n"
	if got != want {
		t.Errorf("collapsed output:\n%s\nwant:\n%s", got, want)
	}
	if strings.Count(got, "\n") != 2 {
		t.Errorf("expected 2 lines, got %q", got)
	}
}
