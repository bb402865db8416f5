package mpsim

import (
	"fmt"
	"sort"
	"strings"
)

// Events: everything the simulator reports — a send, a receive, a
// drop, a crash — is one Event handed to emit, which books it in Stats
// and, when enabled on a Config, records it in the trace with its
// virtual timestamp.  Runs are deterministic, so a trace is a
// reproducible artifact — useful for inspecting schedule structure and
// for regression-testing communication patterns.

// EventKind labels a trace event.
type EventKind int

const (
	// EvSend is recorded when a process finishes handing a message to
	// the network (or to itself).
	EvSend EventKind = iota
	// EvRecv is recorded when a process consumes a message.
	EvRecv
	// EvDrop is recorded when fault injection loses a transmission: the
	// acting rank is the one that sent it (for a lost ack, the acker)
	// and Peer the one it was bound for.
	EvDrop
	// EvRetransmit is recorded when the reliable transport re-launches
	// an unacked packet.
	EvRetransmit
	// EvDupDiscard is recorded when the receiver's transport discards a
	// duplicate delivery.
	EvDupDiscard
	// EvCorruptDiscard is recorded when the receiver's transport
	// discards a delivery whose checksum does not match.
	EvCorruptDiscard
	// EvAck is recorded at the sender when a packet is acknowledged.
	EvAck
	// EvTimeout is recorded when a blocking operation's virtual-time
	// deadline expires.
	EvTimeout
	// EvPeerFail is recorded when the reliable transport abandons a
	// peer after exhausting its retransmission budget.
	EvPeerFail
	// EvCrash is recorded when a crash fault kills a rank.
	EvCrash
	// EvCrashDetect is recorded when the failure detector declares a
	// crashed rank dead (Peer is the dead rank).
	EvCrashDetect
	// EvRestart is recorded when a crashed rank restarts with a fresh
	// incarnation.
	EvRestart
)

// kinds gives every EventKind its trace name and the obs counter it
// feeds; what a kind adds to Stats is emit's switch.
var kinds = [...]struct{ name, counter string }{
	EvSend:           {"send", "mpsim.sends"},
	EvRecv:           {"recv", "mpsim.recvs"},
	EvDrop:           {"drop", "mpsim.drops"},
	EvRetransmit:     {"rexmit", "mpsim.retransmits"},
	EvDupDiscard:     {"dupdisc", "mpsim.dup_discards"},
	EvCorruptDiscard: {"corrupt", "mpsim.corrupt_discards"},
	EvAck:            {"ack", "mpsim.acks"},
	EvTimeout:        {"timeout", "mpsim.timeouts"},
	EvPeerFail:       {"peerfail", "mpsim.peer_fails"},
	EvCrash:          {"crash", "mpsim.crashes"},
	EvCrashDetect:    {"crashdetect", "mpsim.crash_detects"},
	EvRestart:        {"restart", "mpsim.restarts"},
}

func (k EventKind) String() string {
	if k >= 0 && int(k) < len(kinds) {
		return kinds[k].name
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one traced operation.
type Event struct {
	// Time is the acting process's virtual clock after the operation.
	Time float64
	// Rank is the acting process's world rank.
	Rank int
	// Kind says whether this is a send or a receive.
	Kind EventKind
	// Peer is the other endpoint's world rank.
	Peer int
	// Bytes is the payload size.
	Bytes int
}

// Trace is the recorded event sequence of one run, in the order the
// scheduler executed the operations (globally deterministic).
type Trace struct {
	Events []Event
}

// Timeline renders the trace as one line per event, sorted by time
// (ties broken by rank), for golden-file style assertions and human
// inspection.
func (t *Trace) Timeline() string {
	evs := append([]Event(nil), t.Events...)
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].Time != evs[b].Time {
			return evs[a].Time < evs[b].Time
		}
		return evs[a].Rank < evs[b].Rank
	})
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "%12.6fms  rank %2d  %s  peer %2d  %6d B\n",
			e.Time*1000, e.Rank, e.Kind, e.Peer, e.Bytes)
	}
	return b.String()
}

// emit books one occurrence, and is the only place anything is booked:
// call sites say what happened once, and Stats, the trace and the
// observability layer are its three sinks.
//
// Stats: the acting rank's counters, nothing else.  What passed over
// one link is read off the trace or the tracer's spans, not booked.
//
// Trace (Config.Trace): the acting rank's shard-local buffer.
// Coordinator contexts append there too, which is safe because they
// run only while every shard is quiesced; the buffers are merged when
// the run completes.
//
// Obs (Config.Obs): the kind's counter; traffic also feeds the byte
// totals and the size histogram (its spans are opened at the call
// sites, where the before-clock is known), and every other kind —
// things that happen inside scheduler timers rather than on a process's
// own instruction stream — surfaces as an instant on the acting rank's
// timeline, tagged with the peer.
func (w *World) emit(e Event) {
	rs := &w.stats.PerRank[e.Rank]
	switch e.Kind {
	case EvSend:
		rs.MsgsSent++
		rs.BytesSent += int64(e.Bytes)
	case EvRecv:
		rs.MsgsRecv++
		rs.BytesRecv += int64(e.Bytes)
	case EvDrop:
		rs.Drops++
	case EvRetransmit:
		rs.Retransmits++
	case EvDupDiscard:
		rs.DupsDiscarded++
	case EvCorruptDiscard:
		rs.CorruptDiscarded++
	case EvTimeout:
		rs.Timeouts++
	case EvPeerFail:
		rs.FailedSends++
	}
	if w.trace != nil {
		s := w.procs[e.Rank].shard
		s.events = append(s.events, e)
	}
	if w.obs == nil {
		return
	}
	c := &w.obsC
	c.kind[e.Kind].Inc()
	switch e.Kind {
	case EvSend:
		c.bytesSent.Add(int64(e.Bytes))
		c.msgBytes.Observe(float64(e.Bytes))
	case EvRecv:
		c.bytesRecv.Add(int64(e.Bytes))
	default:
		sp := w.obs.Instant(e.Rank, e.Kind.String(), e.Time)
		if e.Peer >= 0 {
			sp.SetPeer(e.Peer)
		}
		if e.Bytes > 0 {
			sp.SetBytes(e.Bytes)
		}
	}
}
