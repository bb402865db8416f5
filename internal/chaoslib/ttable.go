// Package chaoslib is the CHAOS analogue: a runtime library for
// irregularly distributed arrays accessed through indirection arrays.
// Its centrepiece is the distributed translation table that maps a
// global element index to its owning process and local offset; on top
// of it the package provides inspector/executor gather and scatter-add
// schedules for irregular mesh sweeps, a native copy schedule, and the
// Meta-Chaos inquiry interface with index-list regions.
package chaoslib

import (
	"encoding/binary"
	"fmt"

	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/mpsim"
)

const (
	tagGather  = 0x30000
	tagScatter = 0x31000
	tagCopy    = 0x32000
)

// Loc is one translation-table entry: the process that stores an
// element and the element's offset in that process's local storage.
type Loc struct {
	Proc int32
	Off  int32
}

// TTable is the translation table for one irregular distribution.  In
// its normal (distributed) form each process stores one page of
// entries — dereferencing a global index requires asking the page's
// owner, which is why Chaos dereference dominates schedule-building
// cost in the paper's measurements.  A replicated form (built by
// Replicate or decoded from a descriptor) answers lookups locally at
// the price of holding the entire table, which is as large as the data
// array itself.
type TTable struct {
	n      int
	nprocs int
	page   int // entries per page: ceil(n/nprocs)

	// Distributed form: entries [pageLo, pageHi) of the table.
	local  []Loc
	pageLo int

	// Replicated form: all n entries; nil in the distributed form.
	full []Loc

	scratch lookupScratch
}

// BuildTTable constructs the distributed translation table for an
// irregular distribution, collectively over ctx.Comm.  Process r
// declares that it stores the element with global index indices[k] at
// local offset offsets[k]; offsets may be nil, meaning offset k (the
// common dense case).  Every global index in [0, n) must be claimed
// exactly once across the program, where n is the sum of all list
// lengths.
func BuildTTable(ctx *core.Ctx, indices []int32, offsets []int32) (*TTable, error) {
	comm := ctx.Comm
	p := ctx.P
	if offsets != nil && len(offsets) != len(indices) {
		return nil, fmt.Errorf("chaoslib: %d indices but %d offsets", len(indices), len(offsets))
	}
	n := int(comm.AllreduceInt64(mpsim.OpSum, int64(len(indices))))
	if n == 0 {
		return nil, fmt.Errorf("chaoslib: empty distribution")
	}
	tt := &TTable{
		n:      n,
		nprocs: comm.Size(),
		page:   (n + comm.Size() - 1) / comm.Size(),
	}
	tt.pageLo = comm.Rank() * tt.page
	tt.local = make([]Loc, tt.pageCount(comm.Rank()))
	for i := range tt.local {
		tt.local[i] = Loc{Proc: -1}
	}

	// Validate locally, then agree on validity collectively so every
	// process takes the same branch (an early return on one rank while
	// others enter a collective would hang the program).
	outOfRange := 0
	for _, g := range indices {
		if g < 0 || int(g) >= n {
			outOfRange++
		}
	}
	if comm.AllreduceInt64(mpsim.OpSum, int64(outOfRange)) != 0 {
		return nil, fmt.Errorf("chaoslib: global indices outside [0,%d)", n)
	}

	// Route (index, offset) claims to page owners.
	bufs := make([]codec.Writer, comm.Size())
	for k, g := range indices {
		off := int32(k)
		if offsets != nil {
			off = offsets[k]
		}
		w := &bufs[tt.pageOwner(g)]
		w.PutInt32(g)
		w.PutInt32(off)
	}
	outs := make([][]byte, comm.Size())
	for r := range outs {
		outs[r] = bufs[r].Bytes()
	}
	p.ChargeMemOps(len(indices))
	parts := comm.Alltoall(outs, nil)
	duplicates := 0
	for src, part := range parts {
		r := codec.NewReader(part)
		for r.Remaining() > 0 {
			g := r.Int32()
			off := r.Int32()
			slot := int(g) - tt.pageLo
			if tt.local[slot].Proc != -1 {
				duplicates++
				continue
			}
			tt.local[slot] = Loc{Proc: int32(src), Off: off}
			p.ChargeMemOps(1)
		}
	}
	missing := 0
	for _, e := range tt.local {
		if e.Proc == -1 {
			missing++
		}
	}
	bad := comm.AllreduceInt64(mpsim.OpSum, int64(missing+duplicates))
	if bad != 0 {
		return nil, fmt.Errorf("chaoslib: distribution of %d elements has %d missing or multiply-claimed indices", n, bad)
	}
	return tt, nil
}

// N returns the number of elements in the distribution.
func (tt *TTable) N() int { return tt.n }

func (tt *TTable) pageOwner(g int32) int {
	o := int(g) / tt.page
	if o >= tt.nprocs {
		o = tt.nprocs - 1
	}
	return o
}

func (tt *TTable) pageCount(rank int) int {
	lo := rank * tt.page
	if lo >= tt.n {
		return 0
	}
	hi := lo + tt.page
	if hi > tt.n {
		hi = tt.n
	}
	return hi - lo
}

// Lookup dereferences the given global indices: collective over
// ctx.Comm in the distributed form (every process must call, even with
// an empty list), local in the replicated form.  The result is in
// request order.
func (tt *TTable) Lookup(ctx *core.Ctx, indices []int32) []Loc {
	tt.ask(ctx, indices)
	out := make([]Loc, len(indices))
	for i := range out {
		out[i] = tt.answer(indices, i)
	}
	ctx.P.ChargeMemOps(len(indices))
	return out
}

// lookupRuns is Lookup for the inquiry functions: it appends to out the
// entries of indices (the set's elements at the positions in at) paired
// with those positions.  The table answers element by element; entries
// fuse into runs only where the distribution happens to be regular.
func (tt *TTable) lookupRuns(ctx *core.Ctx, indices []int32, at []core.PosRange, out []core.LocRun) []core.LocRun {
	tt.ask(ctx, indices)
	ans := out[len(out):] // nothing fuses into out's own runs
	k := 0
	for _, iv := range at {
		for pos := iv.Lo; pos < iv.Hi; pos++ {
			e := tt.answer(indices, k)
			ans = core.AppendLoc(ans, pos, e.Proc, e.Off)
			k++
		}
	}
	ctx.P.ChargeMemOps(len(indices))
	return append(out, ans...)
}

// lookupScratch is a lookup round's working storage, kept on the table
// so a round allocates only the caller's answer once the buffers have
// grown to the round's size.  Reuse is safe because Alltoall copies
// every buffer it is handed before it returns and lands what it
// receives in the slots it is given, and ask resets the scratch when it
// starts.
type lookupScratch struct {
	indices []int32  // the global indices an inquiry asks about (Lib.indices)
	owners  []int32  // each request's page owner
	cur     []int32  // per owner: a cursor into its slab
	req     []byte   // requests, grouped by owner
	reply   []byte   // replies, grouped by asking process
	bufs    [][]byte // the parts handed to each Alltoall
	asked   [][]byte // the round's requests, by asking process
	answers [][]byte // the round's replies, by owner
}

// ask runs the distributed form's lookup round for indices and leaves
// the replies for answer to read; the replicated form needs no round.
func (tt *TTable) ask(ctx *core.Ctx, indices []int32) {
	if tt.full != nil {
		return
	}
	p, comm := ctx.P, ctx.Comm
	np := comm.Size()
	s := &tt.scratch
	if len(s.bufs) != np {
		s.cur, s.bufs = make([]int32, np+1), make([][]byte, np)
		s.asked, s.answers = make([][]byte, np), make([][]byte, np)
	}

	// Group requests by page owner: count, then write each owner's
	// requests into its own stretch of one slab.
	s.owners = resize(s.owners, len(indices))
	clear(s.cur)
	for i, g := range indices {
		if g < 0 || int(g) >= tt.n {
			panic(fmt.Sprintf("chaoslib: lookup of index %d outside [0,%d)", g, tt.n))
		}
		o := tt.pageOwner(g)
		s.owners[i] = int32(o)
		s.cur[o+1]++
	}
	for o := 0; o < np; o++ {
		s.cur[o+1] += s.cur[o]
	}
	s.req = resize(s.req, 4*len(indices))
	for i, g := range indices {
		o := s.owners[i]
		binary.LittleEndian.PutUint32(s.req[4*s.cur[o]:], uint32(g))
		s.cur[o]++
	}
	lo := int32(0)
	for o := 0; o < np; o++ { // cur[o] has moved to the end of o's stretch
		s.bufs[o] = s.req[4*lo : 4*s.cur[o]]
		lo = s.cur[o]
	}
	p.ChargeMemOps(len(indices))
	asked := comm.Alltoall(s.bufs, s.asked)

	// Serve: translate every request against my page.
	served := 0
	for _, part := range asked {
		served += len(part) / 4
	}
	s.reply = resize(s.reply, 8*served)
	at := 0
	for src, part := range asked {
		lo := at
		for k := 0; k < len(part); k += 4 {
			g := int32(binary.LittleEndian.Uint32(part[k:]))
			e := tt.local[int(g)-tt.pageLo]
			binary.LittleEndian.PutUint32(s.reply[at:], uint32(e.Proc))
			binary.LittleEndian.PutUint32(s.reply[at+4:], uint32(e.Off))
			at += 8
		}
		s.bufs[src] = s.reply[lo:at]
	}
	p.ChargeDeref(served)
	comm.Alltoall(s.bufs, s.answers)
	clear(s.cur)
}

// answer returns the entry of request i; after ask, requests must be
// read in order.
func (tt *TTable) answer(indices []int32, i int) Loc {
	if tt.full != nil {
		return tt.full[indices[i]]
	}
	s := &tt.scratch
	o := s.owners[i]
	b := s.answers[o][s.cur[o]:]
	s.cur[o] += 8
	return Loc{Proc: int32(binary.LittleEndian.Uint32(b)), Off: int32(binary.LittleEndian.Uint32(b[4:]))}
}

// resize returns b with length n, reusing its storage when it is large
// enough.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// Replicate gathers the full table onto every process, collectively.
// The result answers lookups locally; the cost (messages proportional
// to the array size) is the reason the paper calls duplication
// impractical for Chaos distributions.
func (tt *TTable) Replicate(ctx *core.Ctx) *TTable {
	if tt.full != nil {
		return tt
	}
	var w codec.Writer
	w.PutInt32(int32(tt.pageLo))
	for _, e := range tt.local {
		w.PutInt32(e.Proc)
		w.PutInt32(e.Off)
	}
	parts := ctx.Comm.Allgather(w.Bytes())
	full := assembleFull(tt.n, parts)
	return &TTable{n: tt.n, nprocs: tt.nprocs, page: tt.page, full: full}
}

func assembleFull(n int, parts [][]byte) []Loc {
	full := make([]Loc, n)
	for _, part := range parts {
		r := codec.NewReader(part)
		lo := int(r.Int32())
		for i := lo; r.Remaining() > 0; i++ {
			full[i] = Loc{Proc: r.Int32(), Off: r.Int32()}
		}
	}
	return full
}

// encodeFull serializes a replicated table.
func (tt *TTable) encodeFull() []byte {
	var w codec.Writer
	w.PutInt32(int32(tt.n))
	w.PutInt32(int32(tt.nprocs))
	for _, e := range tt.full {
		w.PutInt32(e.Proc)
		w.PutInt32(e.Off)
	}
	return w.Bytes()
}

// decodeFull rebuilds a replicated table from encodeFull's output.
func decodeFull(data []byte) (*TTable, error) {
	r := codec.NewReader(data)
	n := int(r.Int32())
	nprocs := int(r.Int32())
	if n <= 0 || nprocs <= 0 {
		return nil, fmt.Errorf("chaoslib: corrupt table descriptor (n=%d, nprocs=%d)", n, nprocs)
	}
	tt := &TTable{n: n, nprocs: nprocs, page: (n + nprocs - 1) / nprocs}
	tt.full = make([]Loc, n)
	for i := 0; i < n; i++ {
		tt.full[i] = Loc{Proc: r.Int32(), Off: r.Int32()}
	}
	return tt, nil
}
