// Package obs is the virtual-time observability layer: a span-based
// tracer plus a metrics registry, threaded through the simulator and
// the Meta-Chaos core so that every phase of a data move — schedule
// computation, pack, wire, unpack, local copy — is attributable on the
// virtual clock, exactly the per-phase breakdown the paper's Tables
// 1-5 report for real machines.
//
// The whole layer is opt-in: a nil *Tracer is a valid tracer whose
// every method is a no-op, so instrumented code points cost one
// pointer comparison when observability is off and the hot paths stay
// allocation-free.  Runs are deterministic, so an enabled trace is a
// reproducible artifact: the same workload always produces the same
// spans at the same virtual times.
//
// Exports: Chrome about://tracing JSON (WriteChromeTrace) and a
// collapsed-stack flamegraph format (WriteCollapsed); cmd/mctrace
// -format is the command-line front end.
package obs

import (
	"fmt"
	"sort"
)

// span is one recorded interval on a rank's virtual clock.  Begin
// appends it open; End closes it.  Parent links are maintained with a
// per-rank stack so exports can reconstruct the call tree without
// re-deriving nesting from interval containment.
type span struct {
	name       string
	rank       int32
	parent     int32 // index into Tracer.spans, -1 for a root span
	peer       int32 // tagged peer rank, -1 when untagged
	bytes      int64 // tagged payload size, -1 when untagged
	elem       string
	start, end float64
	open       bool
	instant    bool
}

// Tracer records spans and instant events on the virtual clock.  The
// zero value is ready to use; a nil Tracer discards everything at zero
// cost.  The simulator's cooperative scheduler sequentializes all
// recording, so no locking is needed (the same discipline the
// simulator's own Stats and Trace follow).
type Tracer struct {
	spans []span
	// stacks[rank] holds the indices of that rank's open spans.
	stacks [][]int32
	// ranks[rank] names the rank's thread in exports ("program/rank").
	ranks []string

	// Metrics is the tracer's metrics registry, allocated lazily by
	// MetricsRegistry.
	metrics *Metrics
}

// NewTracer returns an empty, enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span is a handle to one open span.  The zero Span (from a nil
// Tracer) ignores every call.  A Span is a small value, never
// heap-allocated, so taking and ending spans is allocation-free even
// when tracing is on (the tracer's internal slice grows amortized).
type Span struct {
	t   *Tracer
	idx int32
}

// Begin opens a span named name on rank's clock at virtual time now.
// Spans on one rank must close in LIFO order (End enforces it): the
// virtual clock only moves forward inside one process, so properly
// nested begin/end pairs are the natural shape of instrumented code.
func (t *Tracer) Begin(rank int, name string, now float64) Span {
	if t == nil {
		return Span{}
	}
	for len(t.stacks) <= rank {
		t.stacks = append(t.stacks, nil)
	}
	parent := int32(-1)
	stack := t.stacks[rank]
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{
		name:   name,
		rank:   int32(rank),
		parent: parent,
		peer:   -1,
		bytes:  -1,
		start:  now,
		end:    now,
		open:   true,
	})
	t.stacks[rank] = append(stack, idx)
	return Span{t: t, idx: idx}
}

// Instant records a zero-duration event (a retransmission firing, a
// drop) at virtual time now.  It nests under the rank's currently open
// span for export purposes but does not join the stack.
func (t *Tracer) Instant(rank int, name string, now float64) Span {
	if t == nil {
		return Span{}
	}
	sp := t.Begin(rank, name, now)
	t.spans[sp.idx].instant = true
	sp.End(now)
	return sp
}

// SetPeer tags the span with the other endpoint's rank.
func (s Span) SetPeer(peer int) Span {
	if s.t != nil {
		s.t.spans[s.idx].peer = int32(peer)
	}
	return s
}

// SetBytes tags the span with a payload size.
func (s Span) SetBytes(n int) Span {
	if s.t != nil {
		s.t.spans[s.idx].bytes = int64(n)
	}
	return s
}

// SetElem tags the span with an element-type label.
func (s Span) SetElem(elem string) Span {
	if s.t != nil {
		s.t.spans[s.idx].elem = elem
	}
	return s
}

// End closes the span at virtual time now.  Spans must close in LIFO
// order per rank, and a span cannot end before it started — both are
// instrumentation bugs worth failing loudly on.
func (s Span) End(now float64) {
	if s.t == nil {
		return
	}
	rec := &s.t.spans[s.idx]
	if !rec.open {
		panic(fmt.Sprintf("obs: span %q on rank %d ended twice", rec.name, rec.rank))
	}
	stack := s.t.stacks[rec.rank]
	if len(stack) == 0 || stack[len(stack)-1] != s.idx {
		panic(fmt.Sprintf("obs: span %q on rank %d ended out of order", rec.name, rec.rank))
	}
	if now < rec.start {
		panic(fmt.Sprintf("obs: span %q on rank %d ends at %g before its start %g", rec.name, rec.rank, now, rec.start))
	}
	rec.end = now
	rec.open = false
	s.t.stacks[rec.rank] = stack[:len(stack)-1]
}

// Depth returns how many spans are currently open on rank's stack.
// Paired with Unwind, it lets an abnormal-termination path (a
// virtual-time deadline abandoning a blocked operation) close the
// spans the aborted code will never end.
func (t *Tracer) Depth(rank int) int {
	if t == nil || rank >= len(t.stacks) {
		return 0
	}
	return len(t.stacks[rank])
}

// Unwind force-closes every span opened above depth on rank's stack,
// stamping them with virtual time now (clamped to each span's start).
// Normal code must end its spans with End; Unwind exists for unwinding
// after a recovered failure, where the abandoned operation's spans
// would otherwise poison the stack.
func (t *Tracer) Unwind(rank, depth int, now float64) {
	if t == nil || rank >= len(t.stacks) {
		return
	}
	stack := t.stacks[rank]
	for len(stack) > depth {
		idx := stack[len(stack)-1]
		rec := &t.spans[idx]
		end := now
		if end < rec.start {
			end = rec.start
		}
		rec.end = end
		rec.open = false
		stack = stack[:len(stack)-1]
	}
	t.stacks[rank] = stack
}

// SetRankName labels a rank for exports (thread names in the Chrome
// trace, stack roots in the collapsed format).  Unnamed ranks render
// as "rank N".
func (t *Tracer) SetRankName(rank int, name string) {
	if t == nil {
		return
	}
	for len(t.ranks) <= rank {
		t.ranks = append(t.ranks, "")
	}
	t.ranks[rank] = name
}

// rankName returns the display name for a rank.
func (t *Tracer) rankName(rank int32) string {
	if int(rank) < len(t.ranks) && t.ranks[rank] != "" {
		return t.ranks[rank]
	}
	return fmt.Sprintf("rank %d", rank)
}

// MetricsRegistry returns the tracer's metrics registry, creating it
// on first use; it returns nil on a nil tracer (and a nil *Metrics is
// itself a valid, no-op registry).
func (t *Tracer) MetricsRegistry() *Metrics {
	if t == nil {
		return nil
	}
	if t.metrics == nil {
		t.metrics = NewMetrics()
	}
	return t.metrics
}

// SpanCount returns the number of recorded spans and instants.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// OpenSpans returns how many spans are still open across all ranks —
// zero after a well-formed run.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, stack := range t.stacks {
		n += len(stack)
	}
	return n
}

// SpanView is the read-only view of one recorded span, for tests and
// report tooling.
type SpanView struct {
	Name    string
	Rank    int
	Peer    int   // -1 when untagged
	Bytes   int64 // -1 when untagged
	Start   float64
	End     float64
	Instant bool
}

// Duration returns the span's virtual-time extent in seconds.
func (v SpanView) Duration() float64 { return v.End - v.Start }

// Spans returns views of every recorded span in record order (begin
// order, which on one rank is also virtual-time order).
func (t *Tracer) Spans() []SpanView {
	if t == nil {
		return nil
	}
	out := make([]SpanView, len(t.spans))
	for i := range t.spans {
		rec := &t.spans[i]
		out[i] = SpanView{
			Name:    rec.name,
			Rank:    int(rec.rank),
			Peer:    int(rec.peer),
			Bytes:   rec.bytes,
			Start:   rec.start,
			End:     rec.end,
			Instant: rec.instant,
		}
	}
	return out
}

// PhaseTotal aggregates every span sharing one name.
type PhaseTotal struct {
	Name    string
	Count   int
	Seconds float64 // summed durations
	Bytes   int64   // summed tagged bytes (untagged spans contribute 0)
}

// PhaseTotals aggregates spans by name, summing virtual-time durations
// and tagged bytes, sorted by descending total time (name breaks
// ties).  Instants count events but no time.
func (t *Tracer) PhaseTotals() []PhaseTotal {
	if t == nil {
		return nil
	}
	idx := make(map[string]int)
	var out []PhaseTotal
	for i := range t.spans {
		rec := &t.spans[i]
		j, ok := idx[rec.name]
		if !ok {
			j = len(out)
			idx[rec.name] = j
			out = append(out, PhaseTotal{Name: rec.name})
		}
		out[j].Count++
		out[j].Seconds += rec.end - rec.start
		if rec.bytes > 0 {
			out[j].Bytes += rec.bytes
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Seconds != out[b].Seconds {
			return out[a].Seconds > out[b].Seconds
		}
		return out[a].Name < out[b].Name
	})
	return out
}
