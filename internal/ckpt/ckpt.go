// Package ckpt provides coordinated checkpoint/restart for
// distributed objects: each process snapshots its local storage of
// every registered object into a versioned, checksummed in-memory
// store, and after a fail-stop crash the survivors (or a restarted
// process) replay a snapshot back into live objects and resume from
// it.
//
// The store is process-local by design — the simulator's fail-stop
// model loses a dead rank's memory, so a recovery protocol built on it
// shrinks the group to processes that still hold their snapshots (the
// elastic experiment's path).  Consistency across processes comes from
// the caller: every member checkpoints the same version at the same
// point of the computation.
package ckpt

import (
	"fmt"

	"metachaos/internal/core"
	"metachaos/internal/mpsim"
)

// Named pairs a distributed object with the stable name it is
// checkpointed under.  Names must be consistent across processes and
// across save/restore pairs.
type Named struct {
	Name string
	Obj  core.DistObject
}

// snapshot is one object's frozen local storage: the element type and
// unit count for shape checking, the wire-encoded payload (the same
// little-endian scalar encoding move lanes use, exact for every
// element kind), and an FNV-1a checksum of the payload.
type snapshot struct {
	elem  core.ElemType
	units int
	wire  []byte
	sum   uint64
}

type key struct {
	name    string
	version int
}

// Store holds one process's checkpoints, versioned by caller-chosen
// integer tags (an iteration number, a phase counter).  The zero
// value is ready to use.
type Store struct {
	snaps map[key]snapshot
}

// NewStore returns an empty checkpoint store.
func NewStore() *Store { return &Store{} }

// Save snapshots each object's local storage under version.  A
// descriptor-only object (nil LocalMem) saves an empty snapshot, so a
// process can register the same object list on both sides of a
// coupling.  Saving an existing (name, version) pair overwrites it.
// The copy cost is charged to the process's virtual clock and the
// snapshot appears as a ckpt.save span on traces.
func (st *Store) Save(p *mpsim.Proc, version int, objs ...Named) {
	sp := p.Span("ckpt.save")
	if st.snaps == nil {
		st.snaps = make(map[key]snapshot)
	}
	total := 0
	for _, o := range objs {
		m := o.Obj.LocalMem()
		snap := snapshot{elem: o.Obj.Elem(), units: m.Units()}
		if !m.IsNil() {
			snap.wire = m.AppendTo(make([]byte, 0, m.Units()*snap.elem.Kind.Size()))
			snap.sum = fnv64a(snap.wire)
		}
		st.snaps[key{o.Name, version}] = snap
		total += len(snap.wire)
	}
	p.ChargeCopy(total)
	sp.SetBytes(total).End(p.Clock())
}

// Restore replays version's snapshots into the objects: each named
// object's local storage is overwritten with the checkpointed bytes
// after the checksum and shape are re-verified.  Objects whose
// snapshot was descriptor-only are skipped.  It is the inverse of
// Save, process-local — on a shrunken group, each survivor restores
// its own storage and no communication happens.
func (st *Store) Restore(p *mpsim.Proc, version int, objs ...Named) error {
	sp := p.Span("ckpt.restore")
	defer func() { sp.End(p.Clock()) }()
	total := 0
	for _, o := range objs {
		snap, ok := st.snaps[key{o.Name, version}]
		if !ok {
			return fmt.Errorf("ckpt: no checkpoint of %q at version %d", o.Name, version)
		}
		if snap.wire == nil {
			continue
		}
		if sum := fnv64a(snap.wire); sum != snap.sum {
			return fmt.Errorf("ckpt: checkpoint of %q version %d is corrupt (checksum %016x, want %016x)",
				o.Name, version, sum, snap.sum)
		}
		m := o.Obj.LocalMem()
		if o.Obj.Elem() != snap.elem || m.Units() != snap.units {
			return fmt.Errorf("ckpt: checkpoint of %q version %d holds %d units of %v, object has %d units of %v",
				o.Name, version, snap.units, snap.elem, m.Units(), o.Obj.Elem())
		}
		m.SetFromWire(snap.wire)
		total += len(snap.wire)
	}
	p.ChargeCopy(total)
	sp.SetBytes(total)
	return nil
}

// fnv64a is the FNV-1a checksum guarding snapshots against bit rot.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
