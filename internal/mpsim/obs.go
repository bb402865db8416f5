package mpsim

import "metachaos/internal/obs"

// Observability glue: when Config.Obs carries a tracer, the simulator
// records one span per point-to-point operation (send and receive,
// each nested under whatever collective or move phase the library
// layer has open), and emit feeds it one instant per network-recovery
// event and a set of counters resolved once here so the per-message
// path never touches the registry maps.  Every hook sits behind a
// `w.obs != nil` check: with observability off the only cost is that
// pointer comparison.

// obsCounters caches the simulator's metric handles: one counter per
// event kind (named in the kinds table), plus the byte totals and the
// size histogram that traffic feeds.
type obsCounters struct {
	kind      [len(kinds)]*obs.Counter
	bytesSent *obs.Counter
	bytesRecv *obs.Counter
	msgBytes  *obs.Histogram
}

// resolve binds the handles to a registry.
func (c *obsCounters) resolve(m *obs.Metrics) {
	for k := range kinds {
		c.kind[k] = m.Counter(kinds[k].counter)
	}
	c.bytesSent = m.Counter("mpsim.bytes_sent")
	c.bytesRecv = m.Counter("mpsim.bytes_recv")
	c.msgBytes = m.Histogram("mpsim.msg_bytes", obs.DefBytesBuckets)
}

// beginSpan opens a span on the process's own clock; the zero Span of
// an observability-off run ignores every later call.
func (p *Proc) beginSpan(name string) obs.Span {
	w := p.world
	if w.obs == nil {
		return obs.Span{}
	}
	return w.obs.Begin(p.worldRank, name, p.clock)
}

// Obs returns the run's tracer, or nil when observability is off.
// Libraries above the simulator use it to wrap their own phases in
// spans on the same virtual clock.
func (p *Proc) Obs() *obs.Tracer { return p.world.obs }

// Span opens a span on the process's virtual clock, for library layers
// above the simulator; close it with End(p.Clock()).  With
// observability off it returns the zero Span, which ignores every
// later call.
func (p *Proc) Span(name string) obs.Span { return p.beginSpan(name) }
