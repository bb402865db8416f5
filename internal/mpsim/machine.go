// Package mpsim is a deterministic message-passing machine simulator.
//
// It plays the role that MPI, PVM and IBM's MPL played for the original
// Meta-Chaos system: a point-to-point message passing substrate with
// communicators and collective operations.  Every simulated processor is
// a coroutine, and a cooperative scheduler always resumes the runnable
// processor with the smallest virtual clock, so a run is fully
// deterministic and produces meaningful virtual timings even on a
// single-core host.
//
// The cost model is LogGP-flavoured: a message costs the sender a fixed
// overhead plus a per-byte packing cost, occupies the sender node's
// outbound link and the receiver node's inbound link for its transmission
// time, and arrives after the wire latency.  Nodes may host several
// processors that share one link (as on the paper's DEC Alpha SMP farm),
// which is how client/server contention effects arise.
package mpsim

import "fmt"

// Machine describes the hardware cost model for a simulated run: network
// latency and bandwidth, CPU overheads for messaging, and unit costs for
// the computational charges that runtime libraries place on the clock.
// All times are in seconds, all rates in bytes per second.
type Machine struct {
	// Name identifies the profile in stats and experiment output.
	Name string

	// Latency is the end-to-end wire latency per message.
	Latency float64
	// Bandwidth is the point-to-point link bandwidth.
	Bandwidth float64
	// NodeLinkBandwidth caps the shared per-node link when several
	// processors live on one node.  Zero means the node link is as fast
	// as the point-to-point links (no extra contention).
	NodeLinkBandwidth float64

	// SendOverhead and RecvOverhead are the CPU costs charged to the
	// sender and receiver per message.
	SendOverhead float64
	RecvOverhead float64
	// PerByteCPU is the CPU cost per byte for packing or unpacking a
	// message buffer (a memcpy-class operation).
	PerByteCPU float64

	// LocalCopyBandwidth is the memory bandwidth used for messages a
	// processor sends to itself and for library-level local copies.
	LocalCopyBandwidth float64

	// FlopTime is the cost of one floating-point operation.
	FlopTime float64
	// MemOpTime is the cost of one irregular memory access (an indirect
	// array reference that likely misses cache).
	MemOpTime float64
	// DerefTime is the CPU cost of one translation-table or distribution
	// dereference step (global index -> owner, local address).
	DerefTime float64
	// SectionOpTime is the cost of one step of regular-section schedule
	// arithmetic (advancing a section iterator and locating the point in
	// a block/cyclic distribution) — much cheaper than a translation
	// table lookup.
	SectionOpTime float64
}

// Validate reports a descriptive error for non-physical parameters.
func (m *Machine) Validate() error {
	switch {
	case m.Latency < 0:
		return fmt.Errorf("mpsim: machine %q: negative latency", m.Name)
	case m.Bandwidth <= 0:
		return fmt.Errorf("mpsim: machine %q: bandwidth must be positive", m.Name)
	case m.NodeLinkBandwidth < 0:
		return fmt.Errorf("mpsim: machine %q: negative node link bandwidth", m.Name)
	case m.SendOverhead < 0 || m.RecvOverhead < 0 || m.PerByteCPU < 0:
		return fmt.Errorf("mpsim: machine %q: negative messaging overhead", m.Name)
	case m.LocalCopyBandwidth <= 0:
		return fmt.Errorf("mpsim: machine %q: local copy bandwidth must be positive", m.Name)
	case m.FlopTime < 0 || m.MemOpTime < 0 || m.DerefTime < 0 || m.SectionOpTime < 0:
		return fmt.Errorf("mpsim: machine %q: negative compute cost", m.Name)
	}
	return nil
}

// transmitTime returns the wire occupancy of a message of the given size.
func (m *Machine) transmitTime(bytes int) float64 {
	bw := m.Bandwidth
	if m.NodeLinkBandwidth > 0 && m.NodeLinkBandwidth < bw {
		bw = m.NodeLinkBandwidth
	}
	return float64(bytes) / bw
}

// SP2 returns a profile calibrated to the paper's 16-node IBM SP2 (one
// processor per node, high-performance switch, MPL messaging).  The
// absolute constants are chosen so that the Meta-Chaos experiments land
// in the same millisecond range the paper reports; the scaling shapes are
// what the model is designed to preserve.
func SP2() *Machine {
	return &Machine{
		Name:               "IBM-SP2",
		Latency:            40e-6,
		Bandwidth:          35e6,
		NodeLinkBandwidth:  0, // one processor per node: no sharing
		SendOverhead:       30e-6,
		RecvOverhead:       30e-6,
		PerByteCPU:         8e-9,
		LocalCopyBandwidth: 40e6,
		FlopTime:           15e-9,
		MemOpTime:          450e-9,
		DerefTime:          8e-6,
		SectionOpTime:      40e-9,
	}
}

// AlphaFarmATM returns a profile for the paper's second platform: an
// eight-node DEC AlphaServer farm of 4-processor SMPs connected by OC-3
// ATM links through a Gigaswitch, with PVM/UDP messaging.  Latency is
// much higher and the per-node OC-3 link is shared by all processors of
// a node, which is what saturates the client/server experiments beyond
// eight server processes.
func AlphaFarmATM() *Machine {
	return &Machine{
		Name:               "Alpha-Farm-ATM",
		Latency:            500e-6,
		Bandwidth:          12e6,
		NodeLinkBandwidth:  14e6,
		SendOverhead:       350e-6,
		RecvOverhead:       350e-6,
		PerByteCPU:         10e-9,
		LocalCopyBandwidth: 50e6,
		FlopTime:           250e-9,
		MemOpTime:          300e-9,
		DerefTime:          2e-6,
		SectionOpTime:      40e-9,
	}
}

// Ideal returns a zero-cost machine for correctness tests, where only
// the data movement semantics matter and every operation takes no
// virtual time.  Bandwidths are set absurdly high rather than infinite
// so that time never divides by zero.
func Ideal() *Machine {
	return &Machine{
		Name:               "ideal",
		Latency:            0,
		Bandwidth:          1e18,
		NodeLinkBandwidth:  0,
		SendOverhead:       0,
		RecvOverhead:       0,
		PerByteCPU:         0,
		LocalCopyBandwidth: 1e18,
		FlopTime:           0,
		MemOpTime:          0,
		DerefTime:          0,
		SectionOpTime:      0,
	}
}
