// Package bufpool is the zero-copy data plane's memory discipline: a
// fixed-size-class buffer pool handing out refcounted segments, and a
// scatter-gather Payload that mixes pooled segments with borrowed
// views, so a message can reference source storage directly instead of
// being packed into a flat buffer.  The design follows the DPDK
// mempool + mbuf-chain idiom: fixed classes make recycling O(1), and
// reference counts let a retransmitting transport, a receive queue,
// and the original sender share one set of bytes without copying.
//
// Ownership rules (see DESIGN.md, "Zero-copy data plane"):
//
//   - A Segment or Payload starts with one reference, owned by the
//     caller of GetSegment/GetPayload/OwnPayload/CopyPayload.  A
//     Payload's Retain adds a reference, Release drops one; the last
//     Release returns the object to the pool for reuse.  Releasing
//     below zero panics.
//   - Bytes added with AddView are borrowed: whoever adds the view
//     guarantees they stay valid and immutable until the payload's
//     last reference is released or the payload is materialized.
//   - Materialize severs every borrow by collapsing the payload into
//     one pooled segment holding a copy of the bytes; callers use it
//     before mutating borrowed storage, or before handing a payload to
//     a reader on another scheduler shard.
//   - Bytes wrapped with OwnPayload are given up to the payload, which
//     is born materialized; Flatten hands them back uncopied only to
//     the payload's last holder.
//
// A Pool is safe for concurrent use.  A Payload's reference count is
// atomic, but its segment list must not be mutated (AddView,
// Materialize, Release-to-zero) concurrently with readers; the data
// plane guarantees that through the simulator's scheduling barriers.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// minClassBits..maxClassBits are the power-of-two size classes
	// (64 B .. 4 MiB).  Larger requests get exact-size one-shot
	// segments that are not recycled.
	minClassBits = 6
	maxClassBits = 22
	numClasses   = maxClassBits - minClassBits + 1

	// Freelist caps keep an idle pool's footprint bounded.  Every
	// message is a payload, so the payload cap has to ride out a
	// collective's burst — a 256-rank all-to-all has 65 280 messages in
	// flight at once — or each phase would drop its payloads to the
	// collector only for the next to allocate them again.
	maxFreeSegsPerClass = 128
	maxFreePayloads     = 1 << 16

	// payloadSlab is how many payload structs one refill allocates.
	payloadSlab = 64
)

// classFor maps a byte count to its size class, or -1 for oversize.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassBits
	if c >= numClasses {
		return -1
	}
	return c
}

// Pool hands out refcounted Segments and Payloads and recycles them
// when their last reference drops.  The live counters track objects
// handed out and not yet returned, which is what the leak-check tests
// assert back to zero.
type Pool struct {
	mu       sync.Mutex
	segs     [numClasses][]*Segment
	pays     []*Payload
	livePays int64 // under mu, which every payload get and final release takes anyway
	liveSegs atomic.Int64
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// LiveSegments returns the number of segments handed out and not yet
// fully released.
func (p *Pool) LiveSegments() int64 { return p.liveSegs.Load() }

// LivePayloads returns the number of payloads handed out and not yet
// fully released.
func (p *Pool) LivePayloads() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.livePays
}

// Segment is one refcounted pooled buffer.  Its backing array is fixed
// at the size class's capacity; callers slice Bytes() as needed.
type Segment struct {
	refs  atomic.Int32
	buf   []byte
	pool  *Pool
	class int
}

// GetSegment returns a segment with at least n bytes of capacity and
// one reference owned by the caller.
func (p *Pool) GetSegment(n int) *Segment {
	p.liveSegs.Add(1)
	c := classFor(n)
	if c >= 0 {
		p.mu.Lock()
		if l := p.segs[c]; len(l) > 0 {
			s := l[len(l)-1]
			p.segs[c] = l[:len(l)-1]
			p.mu.Unlock()
			s.refs.Store(1)
			return s
		}
		p.mu.Unlock()
		s := &Segment{pool: p, class: c, buf: make([]byte, 1<<(uint(c)+minClassBits))}
		s.refs.Store(1)
		return s
	}
	s := &Segment{pool: p, class: -1, buf: make([]byte, n)}
	s.refs.Store(1)
	return s
}

// Bytes returns the segment's full backing array.
func (s *Segment) Bytes() []byte { return s.buf }

// Release drops a reference; the last one returns the segment to its
// pool.
func (s *Segment) Release() {
	n := s.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("bufpool: segment released below zero references")
	}
	p := s.pool
	p.liveSegs.Add(-1)
	if s.class < 0 {
		return // oversize one-shot: let the GC take it
	}
	p.mu.Lock()
	if len(p.segs[s.class]) < maxFreeSegsPerClass {
		p.segs[s.class] = append(p.segs[s.class], s)
	}
	p.mu.Unlock()
}

// Payload is a refcounted scatter-gather byte sequence: an ordered
// list of segments, each either a borrowed view of caller storage or a
// slice of a pooled segment the payload holds a reference on.  It is
// the wire representation of a message in the zero-copy data plane.
type Payload struct {
	refs atomic.Int32
	pool *Pool
	segs [][]byte
	own  []*Segment
	n    int
	// seg0 is segs' first backing array: a one-segment payload (every
	// flat message) never allocates a segment list.
	seg0 [1][]byte
	// materialized marks a payload with no borrowed views: collapsed
	// into pooled storage by Materialize, or born owning its bytes
	// (OwnPayload).
	materialized bool
}

// GetPayload returns an empty payload with one reference owned by the
// caller.  An empty freelist refills a slab at a time, the mempool
// way, so a cold pool's first burst of messages costs one allocation
// per payloadSlab payloads rather than one each.
func (p *Pool) GetPayload() *Payload {
	p.mu.Lock()
	p.livePays++
	if len(p.pays) == 0 {
		slab := make([]Payload, payloadSlab)
		for i := range slab {
			pl := &slab[i]
			pl.pool = p
			pl.segs = pl.seg0[:0]
			p.pays = append(p.pays, pl)
		}
	}
	pl := p.pays[len(p.pays)-1]
	p.pays = p.pays[:len(p.pays)-1]
	p.mu.Unlock()
	pl.refs.Store(1)
	return pl
}

// OwnPayload returns a payload holding b as its only segment, with one
// reference owned by the caller.  The caller gives b up: the payload
// owns it outright (it is ordinary garbage-collected memory, not a
// pooled segment), so the payload is born materialized — there is no
// borrow to sever — and an unshared Flatten hands b back uncopied.
// This is how a flat send's private copy enters the data plane.
func (p *Pool) OwnPayload(b []byte) *Payload {
	pl := p.GetPayload()
	pl.AddView(b)
	pl.materialized = true
	return pl
}

// CopyPayload returns a payload holding a copy of b in a pooled
// segment, with one reference owned by the caller.  Like OwnPayload's,
// it is born materialized; unlike it, its storage goes back to the pool
// when the last reference drops, so a message that is copied in and
// read out again costs no allocation.
func (p *Pool) CopyPayload(b []byte) *Payload {
	pl := p.GetPayload()
	if len(b) > 0 {
		seg := p.GetSegment(len(b))
		pl.AttachSegment(seg)
		pl.AddView(seg.buf[:copy(seg.buf, b)])
	}
	pl.materialized = true
	return pl
}

// Len returns the payload's total byte length.
func (pl *Payload) Len() int { return pl.n }

// Segments returns the payload's segment list, valid until the payload
// is mutated or released.  Callers must not modify it.
func (pl *Payload) Segments() [][]byte { return pl.segs }

// Refs returns the current reference count.
func (pl *Payload) Refs() int { return int(pl.refs.Load()) }

// Materialized reports whether no borrowed views remain: Materialize
// has run, or the payload was born owning its bytes.
func (pl *Payload) Materialized() bool { return pl.materialized }

// AddView appends borrowed bytes to the payload.  The caller
// guarantees b stays valid and immutable for the payload's lifetime.
func (pl *Payload) AddView(b []byte) {
	if len(b) == 0 {
		return
	}
	pl.segs = append(pl.segs, b)
	pl.n += len(b)
}

// AttachSegment transfers the caller's reference on s to the payload;
// it adds no bytes (use AddView for the ranges of s actually used).
func (pl *Payload) AttachSegment(s *Segment) {
	pl.own = append(pl.own, s)
}

// Retain adds a reference.
func (pl *Payload) Retain() { pl.refs.Add(1) }

// Release drops a reference; the last one releases the payload's
// segment references and returns it to the pool.
func (pl *Payload) Release() {
	n := pl.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("bufpool: payload released below zero references")
	}
	for _, s := range pl.own {
		s.Release()
	}
	pl.own = pl.own[:0]
	clear(pl.segs) // an idle payload must not keep a dead message's bytes alive
	pl.segs = pl.segs[:0]
	pl.n = 0
	pl.materialized = false
	p := pl.pool
	p.mu.Lock()
	p.livePays--
	if len(p.pays) < maxFreePayloads {
		p.pays = append(p.pays, pl)
	}
	p.mu.Unlock()
}

// AppendTo appends the payload's bytes to dst and returns it.
func (pl *Payload) AppendTo(dst []byte) []byte {
	for _, s := range pl.segs {
		dst = append(dst, s...)
	}
	return dst
}

// Flatten returns the payload's bytes as one flat slice private to the
// caller.  A payload that owns its bytes outright (OwnPayload) and has
// no reference but the caller's gives them up without copying and is
// left empty; anything shared, borrowed or pooled is copied.
func (pl *Payload) Flatten() []byte {
	if pl.materialized && len(pl.own) == 0 && len(pl.segs) == 1 && pl.refs.Load() == 1 {
		b := pl.segs[0]
		pl.segs[0] = nil
		pl.segs, pl.n = pl.segs[:0], 0
		return b
	}
	return pl.AppendTo(make([]byte, 0, pl.n))
}

// Materialize collapses the payload into one pooled segment holding a
// copy of its bytes, severing every borrowed view, and returns the
// number of bytes copied (0 when already materialized or empty).  The
// byte sequence is unchanged, so checksums computed before still
// match.  Only the payload's owner may call it, and not concurrently
// with readers of the segment list.
func (pl *Payload) Materialize() int {
	if pl.materialized || pl.n == 0 {
		pl.materialized = true
		return 0
	}
	seg := pl.pool.GetSegment(pl.n)
	buf := seg.Bytes()[:0]
	for _, s := range pl.segs {
		buf = append(buf, s...)
	}
	for _, s := range pl.own {
		s.Release()
	}
	pl.own = append(pl.own[:0], seg)
	pl.segs = append(pl.segs[:0], buf)
	pl.materialized = true
	return pl.n
}
