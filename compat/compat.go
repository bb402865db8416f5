// Package compat mirrors the original Meta-Chaos C interface from the
// paper (Section 4.2 and Figure 9): handle-based regions, sets of
// regions and schedules, and the MC_* call names.  It exists so the
// paper's example programs can be transcribed almost line for line;
// new code should use the root metachaos package directly.
//
// Names intentionally keep the 1997 underscore style (MC_ComputeSched,
// MC_DataMoveSend, ...) — a deliberate departure from Go naming for
// fidelity to the paper's API.
package compat

import (
	"fmt"

	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/gidx"
	"metachaos/internal/mpsim"
)

// RegionID, SetOfRegionsID and ScheduleID are the opaque handles the
// 1997 API traded in.
type (
	RegionID       int
	SetOfRegionsID int
	ScheduleID     int
)

// Session holds one process's handle tables, standing in for the
// per-process global state of the C library.  Create one per simulated
// process.
type Session struct {
	p     *mpsim.Proc
	ctx   *core.Ctx
	regs  []core.Region
	sets  []*core.SetOfRegions
	sched []*core.Schedule
}

// NewSession initializes the Meta-Chaos library state for the calling
// process, bound to its program communicator.
func NewSession(p *mpsim.Proc) *Session {
	return &Session{p: p, ctx: core.NewCtx(p, p.Comm())}
}

// CreateRegion_HPF builds an HPF/Parti array-section region from
// Fortran-style inclusive bounds: the region covers left[d]..right[d]
// in every dimension d (1-based callers should subtract one, as the
// examples do).  Mirrors CreateRegion_HPF(rank, Rleft, Rright).
func (s *Session) CreateRegion_HPF(rank int, left, right []int) (RegionID, error) {
	if len(left) != rank || len(right) != rank {
		return 0, fmt.Errorf("compat: rank %d with %d/%d bounds", rank, len(left), len(right))
	}
	hi := make([]int, rank)
	for d := range right {
		hi[d] = right[d] + 1 // inclusive -> half-open
	}
	s.regs = append(s.regs, gidx.NewSection(left, hi))
	return RegionID(len(s.regs) - 1), nil
}

// CreateRegion_Chaos builds a CHAOS index-list region.
func (s *Session) CreateRegion_Chaos(indices []int32) RegionID {
	s.regs = append(s.regs, chaoslib.IndexRegion(append([]int32(nil), indices...)))
	return RegionID(len(s.regs) - 1)
}

// MC_NewSetOfRegion creates an empty SetOfRegions and returns its
// handle.
func (s *Session) MC_NewSetOfRegion() SetOfRegionsID {
	s.sets = append(s.sets, core.NewSetOfRegions())
	return SetOfRegionsID(len(s.sets) - 1)
}

// MC_AddRegion2Set appends a region to a set, preserving order (the
// set's linearization is the concatenation).
func (s *Session) MC_AddRegion2Set(r RegionID, set SetOfRegionsID) error {
	if int(r) >= len(s.regs) || int(set) >= len(s.sets) {
		return fmt.Errorf("compat: bad handle (region %d of %d, set %d of %d)",
			r, len(s.regs), set, len(s.sets))
	}
	s.sets[set].Add(s.regs[r])
	return nil
}

// MC_ComputeSched builds the schedule for an intra-program transfer
// (both sides in the calling program), naming each side's library by
// its registry name.  Collective.
func (s *Session) MC_ComputeSched(srcLib string, srcObj core.DistObject, srcSet SetOfRegionsID,
	dstLib string, dstObj core.DistObject, dstSet SetOfRegionsID) (ScheduleID, error) {
	sl, err := core.LookupLibrary(srcLib)
	if err != nil {
		return 0, err
	}
	dl, err := core.LookupLibrary(dstLib)
	if err != nil {
		return 0, err
	}
	sched, err := core.ComputeSchedule(core.SingleProgram(s.ctx.Comm),
		&core.Spec{Lib: sl, Obj: srcObj, Set: s.sets[srcSet], Ctx: s.ctx},
		&core.Spec{Lib: dl, Obj: dstObj, Set: s.sets[dstSet], Ctx: s.ctx},
		core.Cooperation)
	if err != nil {
		return 0, err
	}
	s.sched = append(s.sched, sched)
	return ScheduleID(len(s.sched) - 1), nil
}

// MC_ComputeSchedSend is the sending program's half of an
// inter-program schedule computation: this program owns the source
// data; peerProgram owns the destination.  Collective across both
// programs.  Mirrors the paper's source-side MC_ComputeSched(HPF, B,
// src_setOfRegionId).
func (s *Session) MC_ComputeSchedSend(lib string, obj core.DistObject, set SetOfRegionsID, peerProgram string) (ScheduleID, error) {
	l, err := core.LookupLibrary(lib)
	if err != nil {
		return 0, err
	}
	coupling, err := core.CoupleByName(s.p, s.p.Program(), peerProgram)
	if err != nil {
		return 0, err
	}
	sched, err := core.ComputeSchedule(coupling,
		&core.Spec{Lib: l, Obj: obj, Set: s.sets[set], Ctx: s.ctx}, nil, core.Cooperation)
	if err != nil {
		return 0, err
	}
	s.sched = append(s.sched, sched)
	return ScheduleID(len(s.sched) - 1), nil
}

// MC_ComputeSchedRecv is the receiving program's half.
func (s *Session) MC_ComputeSchedRecv(lib string, obj core.DistObject, set SetOfRegionsID, peerProgram string) (ScheduleID, error) {
	l, err := core.LookupLibrary(lib)
	if err != nil {
		return 0, err
	}
	coupling, err := core.CoupleByName(s.p, peerProgram, s.p.Program())
	if err != nil {
		return 0, err
	}
	sched, err := core.ComputeSchedule(coupling, nil,
		&core.Spec{Lib: l, Obj: obj, Set: s.sets[set], Ctx: s.ctx}, core.Cooperation)
	if err != nil {
		return 0, err
	}
	s.sched = append(s.sched, sched)
	return ScheduleID(len(s.sched) - 1), nil
}

// MC_DataMove performs an intra-program copy using the schedule.
func (s *Session) MC_DataMove(id ScheduleID, src, dst core.DistObject) error {
	sched, err := s.schedule(id)
	if err != nil {
		return err
	}
	sched.Move(src, dst)
	return nil
}

// MC_DataMoveSend sends this program's data through the schedule
// (inter-program).
func (s *Session) MC_DataMoveSend(id ScheduleID, obj core.DistObject) error {
	sched, err := s.schedule(id)
	if err != nil {
		return err
	}
	sched.MoveSend(obj)
	return nil
}

// MC_DataMoveRecv receives data into this program through the
// schedule (inter-program).
func (s *Session) MC_DataMoveRecv(id ScheduleID, obj core.DistObject) error {
	sched, err := s.schedule(id)
	if err != nil {
		return err
	}
	sched.MoveRecv(obj)
	return nil
}

// MC_FreeSched releases a schedule handle.
func (s *Session) MC_FreeSched(id ScheduleID) error {
	if _, err := s.schedule(id); err != nil {
		return err
	}
	s.sched[id] = nil
	return nil
}

func (s *Session) schedule(id ScheduleID) (*core.Schedule, error) {
	if int(id) >= len(s.sched) || s.sched[id] == nil {
		return nil, fmt.Errorf("compat: bad or freed schedule handle %d", id)
	}
	return s.sched[id], nil
}
