package core

import "fmt"

// MergeSchedules fuses schedules built over the same coupling into one
// schedule that moves all their elements with a single aggregated
// message per processor pair — the optimization a coupled code wants
// when several interface transfers fire back to back (each merged
// message replaces one message per constituent schedule).
//
// The constituent schedules must share the union communicator and
// element type, and every process must merge the same schedules in
// the same order (the per-peer packing order becomes: all of a's
// elements, then all of b's, and so on).  The merged schedule moves
// between the same source and destination objects as the constituents.
func MergeSchedules(scheds ...*Schedule) (*Schedule, error) {
	if len(scheds) == 0 {
		return nil, fmt.Errorf("core: merging zero schedules")
	}
	first := scheds[0]
	if first == nil {
		return nil, fmt.Errorf("core: merging nil schedule (index 0)")
	}
	merged := &Schedule{union: first.union, elem: first.elem}
	var sends, recvs lanes
	appendLanes := func(l *lanes, pls []PeerList) {
		for _, pl := range pls {
			for _, r := range pl.Runs {
				l.add(pl.Peer, r)
			}
		}
	}
	for i, s := range scheds {
		if s == nil {
			return nil, fmt.Errorf("core: merging nil schedule (index %d)", i)
		}
		if s.union != first.union {
			return nil, fmt.Errorf("core: schedule %d built over a different coupling", i)
		}
		if s.elem != first.elem {
			return nil, fmt.Errorf("core: schedule %d moves %v elements, schedule 0 moves %v",
				i, s.elem, first.elem)
		}
		merged.elems += s.elems
		appendLanes(&sends, s.Sends)
		appendLanes(&recvs, s.Recvs)
		for _, lr := range s.Local {
			merged.Local = appendLocalRuns(merged.Local, lr)
		}
	}
	merged.Sends, merged.Recvs = sends.list, recvs.list
	return merged, nil
}
