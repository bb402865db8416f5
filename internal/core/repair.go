package core

import (
	"fmt"
	"sort"

	"metachaos/internal/codec"
)

// Incremental schedule repair.  A Schedule carrying its RouteMap
// (AttachRoutes) can be patched when the distribution changes by a
// small delta — a block migrated, a boundary shifted — instead of
// paying the collective O(world) recompute: Diff the old and new route
// maps (O(runs)), and if the changed fraction is small enough,
// reassemble the per-process lists locally from the new map (O(runs),
// no communication, no dereference).  RepairOrRebuild is the policy
// wrapper the coupling service calls when a newly opened pair has a
// donor schedule (internal/serve); it falls back to a full rebuild
// when no routes are attached or the delta is too large for a patch to
// be worth it.
//
// Every input to the repair decision (cached routes, new routes) is
// SPMD-replicated state, so all processes of a coupling take the same
// branch — a cache that repaired on some ranks and rebuilt on others
// would desynchronize the collective rebuild.

// RankView translates a world rank to the current union communicator's
// rank.  Route maps store world ranks (stable across membership
// changes); a view is how assembly rebinds them to whatever union the
// schedule will move over.  mpsim.Comm.RankOf is the canonical view;
// tests use identity views.
type RankView func(worldRank int) (int, bool)

// View returns the rank view of this coupling's union.
func (c *Coupling) View() RankView { return c.Union.RankOf }

// AttachRoutes attaches the transfer's route map to the schedule,
// enabling incremental repair.  myWorld is the calling process's world
// rank (the identity assembly specializes to).  The map must describe
// the same transfer the schedule was computed for.
func (s *Schedule) AttachRoutes(rm *RouteMap, myWorld int) error {
	if rm == nil {
		return fmt.Errorf("core: attaching nil route map")
	}
	if rm.Elems != s.elems {
		return fmt.Errorf("core: route map covers %d elements, schedule moves %d", rm.Elems, s.elems)
	}
	s.routes = rm
	s.myWorld = myWorld
	return nil
}

// HasRoutes reports whether the schedule carries a route map and is
// therefore repairable.
func (s *Schedule) HasRoutes() bool { return s.routes != nil }

// Clone returns a deep copy of the schedule's routing state (lists,
// route map reference, union binding) with fresh executor scratch.
// RepairOrRebuild patches a clone so the donor's cached entry stays
// intact.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		union:   s.union,
		elems:   s.elems,
		elem:    s.elem,
		routes:  s.routes,
		myWorld: s.myWorld,
	}
	c.Sends = make([]PeerList, len(s.Sends))
	for i, pl := range s.Sends {
		c.Sends[i] = PeerList{Peer: pl.Peer, Runs: append([]Run(nil), pl.Runs...)}
	}
	c.Recvs = make([]PeerList, len(s.Recvs))
	for i, pl := range s.Recvs {
		c.Recvs[i] = PeerList{Peer: pl.Peer, Runs: append([]Run(nil), pl.Runs...)}
	}
	c.Local = append([]LocalRun(nil), s.Local...)
	return c
}

// assembleFromRoutes rebuilds the schedule's send/receive/local lists
// for world rank s.myWorld from its route map, translating peer world
// ranks through view.  Lanes come out in first-encounter
// order over the position-sorted runs, and every list is the one its
// element sequence defines (runs.go), so the result is DeepEqual to what
// both collective builders produce.
func (s *Schedule) assembleFromRoutes(view RankView) error {
	var sends, recvs lanes
	s.Local = nil
	my := int32(s.myWorld)
	for i := range s.routes.Runs {
		r := &s.routes.Runs[i]
		l, peer, side := &sends, r.DstRank, r.offs().src()
		switch {
		case r.SrcRank != my && r.DstRank != my:
			continue
		case r.SrcRank == r.DstRank:
			s.Local = appendLocalRuns(s.Local, r.offs())
			continue
		case r.DstRank == my:
			l, peer, side = &recvs, r.SrcRank, r.offs().dst()
		}
		u, ok := view(int(peer))
		if !ok {
			return fmt.Errorf("core: route peer world rank %d is not in the union", peer)
		}
		l.add(u, side)
	}
	s.Sends, s.Recvs = sends.list, recvs.list
	return nil
}

// Repair patches the schedule in place to the delta's new routing: the
// route map is swapped, the per-process lists are reassembled locally
// (O(runs) — no communication, no dereference), and the executor
// scratch is reset so the next move restages.  The caller is
// responsible for the policy decision (see RepairOrRebuild).
func (s *Schedule) Repair(delta *RouteDelta, view RankView) error {
	if delta == nil || delta.Next == nil {
		return fmt.Errorf("core: repairing with nil delta")
	}
	if delta.Next.Elems != s.elems {
		return fmt.Errorf("core: repair delta covers %d elements, schedule moves %d", delta.Next.Elems, s.elems)
	}
	s.routes = delta.Next
	if err := s.assembleFromRoutes(view); err != nil {
		return err
	}
	// The old staging layout no longer matches the lanes; drop it and
	// let the next move regrow the lease.
	s.releaseScratch()
	s.lease, s.sent, s.reqs = nil, nil, nil
	s.netBefore, s.perPeer = nil, nil
	return nil
}

// maxRepairFrac is the largest changed fraction of the transfer a
// repair accepts; above it the patch would touch most lanes anyway and
// the collective rebuild's better constants win.
const maxRepairFrac = 0.25

// RepairOrRebuild returns a schedule for the new routing: when cached
// carries routes and the diff against next is within maxRepairFrac, it
// returns a repaired clone (purely local — the collective rebuild is
// skipped entirely); otherwise it falls back to rebuild.  The boolean
// reports which path ran.  The decision is a pure function of
// SPMD-replicated inputs, so every process of the coupling takes the
// same branch.
func RepairOrRebuild(cached *Schedule, next *RouteMap, view RankView, rebuild func() (*Schedule, error)) (*Schedule, bool, error) {
	if cached != nil && cached.routes != nil && next != nil && cached.elems == next.Elems {
		delta := cached.routes.Diff(next)
		if delta.Frac() <= maxRepairFrac {
			repaired := cached.Clone()
			if err := repaired.Repair(delta, view); err == nil {
				return repaired, true, nil
			}
			// A translation failure (peer outside the union) means the
			// routes and the view disagree about membership; the rebuild
			// resolves it authoritatively.
		}
	}
	s, err := rebuild()
	return s, false, err
}

// Canonical returns a canonical byte encoding of the schedule's
// routing semantics: element count and type, send and receive lanes
// sorted by peer with offsets fully expanded, and local pairs in
// order.  Two schedules with equal Canonical forms move exactly the
// same bytes between the same endpoints in the same per-lane order,
// whatever order their lanes are stored in.  The builders' lists are a
// function of those offset sequences (runs.go), so schedules that also
// agree on lane order are DeepEqual; a hand-built one need not be.
func (s *Schedule) Canonical() []byte {
	var w codec.Writer
	w.PutInt64(int64(s.elems))
	w.PutInt32(PackElem(s.elem))
	lanes := func(pls []PeerList) {
		pls = append([]PeerList(nil), pls...)
		sort.Slice(pls, func(a, b int) bool { return pls[a].Peer < pls[b].Peer })
		w.PutInt32(int32(len(pls)))
		for i := range pls {
			pl := &pls[i]
			w.PutInt32(int32(pl.Peer))
			w.PutInt32(int32(pl.Len()))
			pl.Each(func(off int32) { w.PutInt32(off) })
		}
	}
	lanes(s.Sends)
	lanes(s.Recvs)
	w.PutInt32(int32(s.LocalCount()))
	s.EachLocal(func(src, dst int32) {
		w.PutInt32(src)
		w.PutInt32(dst)
	})
	return w.Bytes()
}
