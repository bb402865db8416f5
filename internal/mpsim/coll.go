package mpsim

import (
	"encoding/binary"
	"fmt"
	"math"

	"metachaos/internal/bufpool"
)

// Collective operations.  All members of a communicator must call the
// same collectives in the same order (SPMD discipline); sequence numbers
// baked into the wire tags detect nothing but keep successive
// collectives from cross-matching.  The collectives are built from the
// same point-to-point messages user code sends, so their virtual-time
// cost emerges from the machine model rather than from a formula.

// phase codes for multi-phase collectives.
const (
	phReduce = iota
	phBcast
	phGather
	phExchange
)

func (c *Comm) collWire(seq, phase int) int {
	return 1<<30 | c.ctx<<21 | (seq&0xfff)<<5 | phase
}

func (c *Comm) nextSeq() int {
	c.seq++
	return c.seq
}

// Barrier blocks until every member of the communicator has entered it.
func (c *Comm) Barrier() {
	c.require()
	sp := c.p.beginSpan("coll.barrier")
	seq := c.nextSeq()
	c.reduceBytes(seq, nil, nil)
	c.bcastBytes(0, seq, nil)
	sp.End(c.p.clock)
}

// Bcast distributes root's data to every member and returns each
// member's copy.  Non-root callers pass nil.
func (c *Comm) Bcast(root int, data []byte) []byte {
	c.require()
	sp := c.p.beginSpan("coll.bcast")
	var wire []byte
	if c.myRank == root {
		wire = make([]byte, len(data))
		copy(wire, data)
	}
	out := c.bcastBytes(root, c.nextSeq(), wire)
	sp.End(c.p.clock)
	return out
}

// BcastPayload is the root's side of a Bcast whose data is a
// scatter-gather payload: the payload is sent by reference down the
// broadcast tree (each child send takes its own transport references),
// so the root never flattens it.  Non-root members participate with the
// ordinary Bcast(root, nil) call and receive flat bytes; the message
// pattern, wire tags and virtual-time cost are identical to Bcast with
// the flattened bytes.  Only the root may call it.
func (c *Comm) BcastPayload(root int, pay *bufpool.Payload) {
	c.require()
	if c.myRank != root {
		panic("mpsim: BcastPayload called by a non-root member; non-roots use Bcast(root, nil)")
	}
	sp := c.p.beginSpan("coll.bcast")
	c.bcastTree(root, c.nextSeq(), pay)
	sp.End(c.p.clock)
}

// bcastBytes is bcastTree over flat bytes.  The root gives up own,
// which goes down the tree as a payload owning it; every member gets
// back bytes private to it — copied if a queued child message (or the
// parent's other children) still references the payload, the payload's
// own bytes if this member holds the last reference.
func (c *Comm) bcastBytes(root, seq int, own []byte) []byte {
	var pay *bufpool.Payload
	if c.myRank == root {
		pay = c.p.world.pool.OwnPayload(own)
	}
	pay = c.bcastTree(root, seq, pay)
	out := pay.Flatten()
	pay.Release()
	return out
}

// bcastTree runs a binomial-tree broadcast rooted at root.  The root
// passes the payload to distribute; every other member passes nil,
// receives it from its parent and forwards that same payload to its
// children by reference.  Each member ends up holding one reference on
// the returned payload (the root's is the one it came in with).
func (c *Comm) bcastTree(root, seq int, pay *bufpool.Payload) *bufpool.Payload {
	n := c.Size()
	rel := (c.myRank - root + n) % n
	wire := c.collWire(seq, phBcast)
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := ((rel &^ mask) + root) % n
			pay, _ = c.p.recvMsg(c.ranks[src], wire)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := ((rel + mask) + root) % n
			c.p.sendPayload(c.ranks[dst], wire, pay)
		}
		mask >>= 1
	}
	return pay
}

// reduceBytes runs a binomial-tree reduction to rank 0.  combine folds
// a received contribution into the accumulator and returns the new
// accumulator; nil combines are used by Barrier where only the message
// pattern matters.  The accumulated value is returned at rank 0.
func (c *Comm) reduceBytes(seq int, acc []byte, combine func(acc, in []byte) []byte) []byte {
	n := c.Size()
	wire := c.collWire(seq, phReduce)
	mask := 1
	for mask < n {
		if c.myRank&mask == 0 {
			partner := c.myRank | mask
			if partner < n {
				in, _ := c.p.recv(c.ranks[partner], wire)
				if combine != nil {
					acc = combine(acc, in)
				}
			}
		} else {
			c.p.send(c.ranks[c.myRank&^mask], wire, acc)
			return nil
		}
		mask <<= 1
	}
	return acc
}

// Gather collects every member's data at root.  At root it returns one
// slice per member in communicator-rank order; elsewhere it returns nil.
func (c *Comm) Gather(root int, data []byte) [][]byte {
	c.require()
	sp := c.p.beginSpan("coll.gather")
	seq := c.nextSeq()
	wire := c.collWire(seq, phGather)
	if c.myRank != root {
		c.p.send(c.ranks[root], wire, data)
		sp.End(c.p.clock)
		return nil
	}
	out := make([][]byte, c.Size())
	own := make([]byte, len(data))
	copy(own, data)
	out[root] = own
	for i := 0; i < c.Size(); i++ {
		if i == root {
			continue
		}
		buf, _ := c.p.recv(c.ranks[i], wire)
		out[i] = buf
	}
	sp.End(c.p.clock)
	return out
}

// Allgather collects every member's data on every member, returned in
// communicator-rank order.  It is implemented as a gather to rank 0
// followed by a broadcast of the framed concatenation.
func (c *Comm) Allgather(data []byte) [][]byte {
	c.require()
	sp := c.p.beginSpan("coll.allgather")
	parts := c.Gather(0, data)
	var packed []byte
	if c.myRank == 0 {
		packed = frameSlices(parts)
	}
	packed = c.Bcast(0, packed)
	out := unframeSlices(packed, c.Size())
	sp.End(c.p.clock)
	return out
}

// Alltoall exchanges bufs[i] with member i for all i and returns into,
// whose entry i now holds the part received from member i: each part is
// appended to into[i][:0], so slots a caller keeps from one exchange to
// the next are reused and the exchange allocates nothing once they are
// large enough.  A nil into gets fresh slots.  bufs and into must both
// have one entry per member and must not share storage; the caller's
// own part is copied locally.  Outgoing parts travel in pooled segments
// that go back to the pool as soon as their receiver has copied them
// out.  Empty slices still cost a (header-sized) message, matching the
// paper's all-to-all schedule exchanges.
func (c *Comm) Alltoall(bufs, into [][]byte) [][]byte {
	c.require()
	n := c.Size()
	if into == nil {
		into = make([][]byte, n)
	}
	if len(bufs) != n || len(into) != n {
		panic(fmt.Sprintf("mpsim: Alltoall needs %d buffers and slots, got %d and %d", n, len(bufs), len(into)))
	}
	sp := c.p.beginSpan("coll.alltoall")
	seq := c.nextSeq()
	wire := c.collWire(seq, phExchange)
	pool := c.p.world.pool
	// Stagger destinations so every process does not hammer rank 0 first.
	for off := 1; off < n; off++ {
		dst := (c.myRank + off) % n
		c.p.sendRef(c.ranks[dst], wire, pool.CopyPayload(bufs[dst]))
	}
	into[c.myRank] = append(into[c.myRank][:0], bufs[c.myRank]...)
	for off := 1; off < n; off++ {
		src := (c.myRank - off + n) % n
		pay, _ := c.p.recvMsg(c.ranks[src], wire)
		into[src] = pay.AppendTo(into[src][:0])
		pay.Release()
	}
	sp.End(c.p.clock)
	return into
}

// ReduceOp selects the combining operation for reductions.
type ReduceOp int

const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// AllreduceFloat64 combines one float64 per member with op and returns
// the result on every member.
func (c *Comm) AllreduceFloat64(op ReduceOp, x float64) float64 {
	c.require()
	sp := c.p.beginSpan("coll.allreduce")
	seq := c.nextSeq()
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
	acc := c.reduceBytes(seq, buf, func(acc, in []byte) []byte {
		a := math.Float64frombits(binary.LittleEndian.Uint64(acc))
		b := math.Float64frombits(binary.LittleEndian.Uint64(in))
		binary.LittleEndian.PutUint64(acc, math.Float64bits(combineFloat64(op, a, b)))
		return acc
	})
	acc = c.bcastBytes(0, seq, acc)
	sp.End(c.p.clock)
	return math.Float64frombits(binary.LittleEndian.Uint64(acc))
}

// AllreduceInt64 combines one int64 per member with op and returns the
// result on every member.
func (c *Comm) AllreduceInt64(op ReduceOp, x int64) int64 {
	c.require()
	sp := c.p.beginSpan("coll.allreduce")
	seq := c.nextSeq()
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(x))
	acc := c.reduceBytes(seq, buf, func(acc, in []byte) []byte {
		a := int64(binary.LittleEndian.Uint64(acc))
		b := int64(binary.LittleEndian.Uint64(in))
		binary.LittleEndian.PutUint64(acc, uint64(combineInt64(op, a, b)))
		return acc
	})
	acc = c.bcastBytes(0, seq, acc)
	sp.End(c.p.clock)
	return int64(binary.LittleEndian.Uint64(acc))
}

func combineFloat64(op ReduceOp, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	}
	panic(fmt.Sprintf("mpsim: unknown reduce op %d", op))
}

func combineInt64(op ReduceOp, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("mpsim: unknown reduce op %d", op))
}

// frameSlices packs a list of slices into one buffer with uint32 length
// prefixes; unframeSlices reverses it.
func frameSlices(parts [][]byte) []byte {
	total := 0
	for _, p := range parts {
		total += 4 + len(p)
	}
	out := make([]byte, 0, total)
	var hdr [4]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		out = append(out, hdr[:]...)
		out = append(out, p...)
	}
	return out
}

func unframeSlices(buf []byte, n int) [][]byte {
	out := make([][]byte, n)
	off := 0
	for i := 0; i < n; i++ {
		ln := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		out[i] = append([]byte(nil), buf[off:off+ln]...)
		off += ln
	}
	return out
}
