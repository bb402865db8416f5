package core

import (
	"fmt"
	"sort"

	"metachaos/internal/mpsim"
)

// Coupling describes the pair of programs (or the single program)
// participating in a transfer: a union communicator spanning both, and
// the union ranks of each program's processes indexed by program rank.
// Every process of both programs must construct an identical coupling.
//
// Like a Schedule, a Coupling is per-process state: it keeps the
// schedule builder's scratch (see buildScratch) and the duplication
// method's decoded peer side (see peerSide) between builds.
type Coupling struct {
	Union    *mpsim.Comm
	SrcRanks []int
	DstRanks []int

	build *buildScratch
	peer  peerSide // duplication between programs: see exchangeDescriptors
}

// SingleProgram builds the coupling for transfers inside one program:
// the union is the program itself and both sides map identically.
func SingleProgram(comm *mpsim.Comm) *Coupling {
	ranks := make([]int, comm.Size())
	for i := range ranks {
		ranks[i] = i
	}
	return &Coupling{Union: comm, SrcRanks: ranks, DstRanks: append([]int(nil), ranks...)}
}

// NewCoupling builds the coupling between two separate programs given
// each program's world ranks in program-rank order.  The union
// communicator is ordered by world rank, so every process derives the
// same communicator locally, without communication.
func NewCoupling(p *mpsim.Proc, srcWorldRanks, dstWorldRanks []int) (*Coupling, error) {
	if len(srcWorldRanks) == 0 || len(dstWorldRanks) == 0 {
		return nil, fmt.Errorf("core: coupling requires non-empty programs")
	}
	seen := make(map[int]bool, len(srcWorldRanks)+len(dstWorldRanks))
	var world []int
	for _, r := range srcWorldRanks {
		if seen[r] {
			return nil, fmt.Errorf("core: world rank %d appears twice in the source program", r)
		}
		seen[r] = true
		world = append(world, r)
	}
	for _, r := range dstWorldRanks {
		if seen[r] {
			return nil, fmt.Errorf("core: world rank %d is in both programs; use SingleProgram for intra-program transfers", r)
		}
		seen[r] = true
		world = append(world, r)
	}
	sort.Ints(world)
	union := p.World().Sub(world)
	pos := make(map[int]int, len(world))
	for i, r := range world {
		pos[r] = i
	}
	c := &Coupling{Union: union}
	for _, r := range srcWorldRanks {
		c.SrcRanks = append(c.SrcRanks, pos[r])
	}
	for _, r := range dstWorldRanks {
		c.DstRanks = append(c.DstRanks, pos[r])
	}
	return c, nil
}

// Shrink returns the coupling restricted to survivors after a crash:
// the union communicator excludes the given dead world ranks (with a
// fresh context and collective sequence space, see mpsim.Comm.Exclude)
// and each side's rank list is remapped to positions in the shrunken
// union.  Every survivor calling Shrink with the same dead set derives
// an identical coupling.  Losing every process of one side is an
// error — there is no one left to hold that side's data.
func (c *Coupling) Shrink(deadWorldRanks []int) (*Coupling, error) {
	drop := make(map[int]bool, len(deadWorldRanks))
	for _, wr := range deadWorldRanks {
		drop[wr] = true
	}
	union := c.Union.Exclude(deadWorldRanks)
	pos := make(map[int]int, union.Size())
	for i := 0; i < union.Size(); i++ {
		pos[union.WorldRank(i)] = i
	}
	out := &Coupling{Union: union}
	for _, ur := range c.SrcRanks {
		if wr := c.Union.WorldRank(ur); !drop[wr] {
			out.SrcRanks = append(out.SrcRanks, pos[wr])
		}
	}
	for _, ur := range c.DstRanks {
		if wr := c.Union.WorldRank(ur); !drop[wr] {
			out.DstRanks = append(out.DstRanks, pos[wr])
		}
	}
	if len(out.SrcRanks) == 0 || len(out.DstRanks) == 0 {
		return nil, fmt.Errorf("core: shrinking the coupling left one side empty (%d source, %d destination survivors)",
			len(out.SrcRanks), len(out.DstRanks))
	}
	return out, nil
}

// CoupleByName builds the coupling between two named programs of the
// simulated world, using the world's static program layout.
func CoupleByName(p *mpsim.Proc, srcProgram, dstProgram string) (*Coupling, error) {
	src := p.ProgramRanks(srcProgram)
	if src == nil {
		return nil, fmt.Errorf("core: no program %q in this world", srcProgram)
	}
	dst := p.ProgramRanks(dstProgram)
	if dst == nil {
		return nil, fmt.Errorf("core: no program %q in this world", dstProgram)
	}
	if srcProgram == dstProgram {
		return SingleProgram(p.Comm()), nil
	}
	return NewCoupling(p, src, dst)
}
