package mpsim

import (
	"fmt"
	"hash/fnv"

	"metachaos/internal/bufpool"
)

// maxUserTag bounds user-supplied tags so they can share the wire tag
// space with communicator contexts and collective sequence numbers.
const maxUserTag = 1 << 21

// Comm is a communicator: an ordered group of processes with a private
// tag space.  Every process holds its own Comm value for each group it
// belongs to, mirroring MPI communicator handles.  Ranks used with a
// Comm are indices into its group, not world ranks.
type Comm struct {
	p     *Proc
	ranks []int // world ranks; comm rank r is ranks[r]
	// inverse maps world rank -> comm rank; nil when ranks form a
	// contiguous run starting at base (the world and program comms),
	// where the translation is plain arithmetic.  Building the map
	// only when needed keeps world construction O(procs), not
	// O(procs^2), which matters for thousand-rank scaling worlds.
	inverse map[int]int
	base    int
	myRank  int
	ctx     int
	seq     int
}

func newComm(p *Proc, worldRanks []int, ctx int) *Comm {
	c := &Comm{
		p:      p,
		ranks:  worldRanks,
		myRank: -1,
		ctx:    ctx & 0x1ff,
	}
	contiguous := true
	for i, wr := range worldRanks {
		if wr != worldRanks[0]+i {
			contiguous = false
			break
		}
	}
	if contiguous {
		if len(worldRanks) > 0 {
			c.base = worldRanks[0]
			if i := p.worldRank - c.base; i >= 0 && i < len(worldRanks) {
				c.myRank = i
			}
		}
		return c
	}
	c.inverse = make(map[int]int, len(worldRanks))
	for i, wr := range worldRanks {
		c.inverse[wr] = i
		if wr == p.worldRank {
			c.myRank = i
		}
	}
	return c
}

// rankOf translates a world rank to this communicator's rank.
func (c *Comm) rankOf(wr int) (int, bool) {
	if c.inverse == nil {
		if i := wr - c.base; i >= 0 && i < len(c.ranks) {
			return i, true
		}
		return 0, false
	}
	i, ok := c.inverse[wr]
	return i, ok
}

// Rank returns the calling process's rank within the communicator, or
// -1 if the process is not a member.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(rank int) int { return c.ranks[rank] }

// Proc returns the process this communicator handle belongs to.
func (c *Comm) Proc() *Proc { return c.p }

// Sub creates a communicator for the subset of this communicator's
// members listed in ranks (communicator ranks, in the order given).
// Every member of the subset must call Sub with the same rank list for
// the resulting communicators to interoperate; the context identifier is
// derived deterministically from the member list so all copies agree.
func (c *Comm) Sub(ranks []int) *Comm {
	world := make([]int, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= len(c.ranks) {
			panic(fmt.Sprintf("mpsim: Sub rank %d out of range for comm of size %d", r, len(c.ranks)))
		}
		world[i] = c.ranks[r]
	}
	return newComm(c.p, world, subCtx(world))
}

// subCtx derives a derived communicator's context identifier from its
// member list, so every member building the same group agrees on the
// tag space without communicating.
func subCtx(world []int) int {
	h := fnv.New32a()
	for _, wr := range world {
		fmt.Fprintf(h, "%d,", wr)
	}
	return 16 + int(h.Sum32()%493) // keep clear of the base contexts
}

func (c *Comm) userWire(tag int) int {
	if tag < 0 || tag >= maxUserTag {
		panic(fmt.Sprintf("mpsim: tag %d outside [0, %d)", tag, maxUserTag))
	}
	return c.ctx<<21 | tag
}

func (c *Comm) require() {
	if c.myRank < 0 {
		panic("mpsim: calling process is not a member of this communicator")
	}
}

// Send transmits data to communicator rank to.
func (c *Comm) Send(to, tag int, data []byte) {
	c.require()
	c.p.send(c.ranks[to], c.userWire(tag), data)
}

// SendPayload transmits a scatter-gather payload to communicator rank
// to by reference: no flat copy is made on the send side.  The
// transport takes its own references; the caller keeps ownership of its
// reference and must not mutate the payload's viewed storage until it
// is certain every reader is done (or has called Materialize).
func (c *Comm) SendPayload(to, tag int, pay *bufpool.Payload) {
	c.require()
	c.p.sendPayload(c.ranks[to], c.userWire(tag), pay)
}

// Recv receives a message sent on this communicator matching (from,
// tag); from may be AnySource and tag may be AnyTag only when combined
// with a specific tag space — AnyTag is restricted to a specific source
// to keep matching within the communicator unambiguous.  It returns the
// payload and the source's communicator rank.
func (c *Comm) Recv(from, tag int) ([]byte, int) {
	c.require()
	wsrc := AnySource
	if from != AnySource {
		wsrc = c.ranks[from]
	}
	if tag == AnyTag {
		panic("mpsim: Comm.Recv does not support AnyTag; use a specific tag")
	}
	data, src := c.p.recv(wsrc, c.userWire(tag))
	crank, ok := c.rankOf(src)
	if !ok {
		panic("mpsim: received message from outside the communicator group")
	}
	return data, crank
}
