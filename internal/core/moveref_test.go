package core

import (
	"math"
	"math/rand"
	"testing"

	"metachaos/internal/codec"
	"metachaos/internal/mpsim"
)

// Equivalence tests for the run-compressed, overlapped executor: a
// retained per-element reference executor (blocking sends, fixed
// receive order, expanded offset lists, no staging-buffer reuse) must
// produce bit-identical data for randomized regular and irregular
// schedules across every move variant.

const refTag = 0x3000

// refMoveOp is the per-element reference executor.  It mirrors
// moveOp's data semantics with none of its optimizations: offsets are
// expanded, every scalar unit is moved one at a time through the Mem
// unit accessors (transported as float64, which is exact for every
// kind at test magnitudes and bit-identical for float64 data), lanes
// are received in schedule order, and every buffer is freshly
// allocated.
func refMoveOp(s *Schedule, srcObj, dstObj DistObject, reverse bool, op int, tag int) {
	w := s.elem.Words
	sends, recvs := s.Sends, s.Recvs
	packObj, unpackObj := srcObj, dstObj
	if reverse {
		sends, recvs = s.Recvs, s.Sends
		packObj, unpackObj = dstObj, srcObj
	}
	if packObj != nil {
		local := packObj.LocalMem()
		for i := range sends {
			pl := &sends[i]
			vals := make([]float64, 0, pl.Len()*w)
			pl.Each(func(off int32) {
				o := int(off) * w
				for j := 0; j < w; j++ {
					vals = append(vals, local.GetF(o+j))
				}
			})
			s.union.Send(pl.Peer, tag, codec.Float64sToBytes(vals))
		}
	}
	if srcObj != nil && dstObj != nil {
		from, to := srcObj.LocalMem(), dstObj.LocalMem()
		s.EachLocal(func(so, do int32) {
			a, b := int(so)*w, int(do)*w
			for j := 0; j < w; j++ {
				switch {
				case op == opAdd:
					addUnit(&to, b+j, from.GetF(a+j))
				case reverse:
					from.SetF(a+j, to.GetF(b+j))
				default:
					to.SetF(b+j, from.GetF(a+j))
				}
			}
		})
	}
	if unpackObj != nil {
		local := unpackObj.LocalMem()
		for i := range recvs {
			pl := &recvs[i]
			data, _ := s.union.Recv(pl.Peer, tag)
			vals := codec.BytesToFloat64s(data)
			t := 0
			pl.Each(func(off int32) {
				o := int(off) * w
				for j := 0; j < w; j++ {
					if op == opAdd {
						addUnit(&local, o+j, vals[t])
					} else {
						local.SetF(o+j, vals[t])
					}
					t++
				}
			})
		}
	}
}

// addUnit adds v into scalar unit u in the storage's native
// arithmetic (integer kinds wrap), the reference for MoveAdd.
func addUnit(m *Mem, u int, v float64) {
	switch m.et.Kind {
	case KindFloat64:
		m.f64[u] += v
	case KindFloat32:
		m.f32[u] += float32(v)
	case KindInt64:
		m.i64[u] += int64(v)
	case KindInt32:
		m.i32[u] += int32(v)
	case KindByte:
		m.by[u] += byte(v)
	}
}

// refObj is a bare local float64 array implementing DistObject.
type refObj struct {
	words int
	data  []float64
}

func (o *refObj) Elem() ElemType { return Float64Elems(o.words) }
func (o *refObj) LocalMem() Mem  { return Mem{et: o.Elem(), f64: o.data} }

func (o *refObj) clone() *refObj {
	return &refObj{words: o.words, data: append([]float64(nil), o.data...)}
}

// memObj is a bare Mem-backed DistObject for dtype sweeps.
type memObj struct{ mem Mem }

func (o *memObj) Elem() ElemType { return o.mem.Elem() }
func (o *memObj) LocalMem() Mem  { return o.mem }

func (o *memObj) clone() *memObj {
	m := MakeMem(o.mem.Elem(), o.mem.Elems())
	m.SetFromWire(o.mem.AppendTo(nil))
	return &memObj{mem: m}
}

// buildSchedFromPerm constructs one process's Schedule directly from a
// global slot bijection: global source slot i (process i/slotsPer,
// offset i%slotsPer) feeds global destination slot perm[i].  Every
// process iterates the bijection in the same order, so per-lane
// sequences line up across processes exactly as the real schedule
// builds guarantee.
func buildSchedFromPerm(comm *mpsim.Comm, slotsPer int, elem ElemType, perm []int) *Schedule {
	rank := comm.Rank()
	s := &Schedule{union: comm, elems: len(perm), elem: elem}
	var b buildScratch
	for i, d := range perm {
		sp, so := i/slotsPer, int32(i%slotsPer)
		dp, do := d/slotsPer, int32(d%slotsPer)
		switch {
		case sp == rank && dp == rank:
			b.local = appendLocalRun(b.local, so, do)
		case sp == rank:
			b.sends.add(dp, Run{Start: so, Count: 1})
		case dp == rank:
			b.recvs.add(sp, Run{Start: do, Count: 1})
		}
	}
	b.take(s)
	return s
}

func bitEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: word %d = %v, reference %v", label, i, got[i], want[i])
			return
		}
	}
}

// TestMoveMatchesReferenceExecutor is the randomized equivalence
// property: for random process counts, element widths and slot
// bijections — irregular permutations and regular shifted sections —
// Move, MoveReverse and MoveAdd must be bit-identical to the
// per-element reference executor.
func TestMoveMatchesReferenceExecutor(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		nprocs := 2 + rng.Intn(4)    // 2..5
		words := 1 + rng.Intn(3)     // 1..3
		slotsPer := 8 + rng.Intn(41) // 8..48
		m := nprocs * slotsPer
		perm := make([]int, m)
		regular := trial%2 == 0
		if regular {
			// Shifted identity: long stride-1 runs crossing processes.
			shift := 1 + rng.Intn(m-1)
			for i := range perm {
				perm[i] = (i + shift) % m
			}
		} else {
			for i, v := range rng.Perm(m) {
				perm[i] = v
			}
		}
		mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
			comm := p.Comm()
			sched := buildSchedFromPerm(comm, slotsPer, Float64Elems(words), perm)
			runs := len(sched.Local)
			for _, pl := range append(sched.Sends, sched.Recvs...) {
				runs += len(pl.Runs)
			}
			if regular && runs > 3*nprocs {
				t.Errorf("trial %d: regular schedule kept %d runs for %d lanes", trial, runs, nprocs)
			}
			src := &refObj{words: words, data: make([]float64, slotsPer*words)}
			dst := &refObj{words: words, data: make([]float64, slotsPer*words)}
			for k := range src.data {
				src.data[k] = float64(comm.Rank()*100000+k) + 0.5
				dst.data[k] = -float64(comm.Rank()*100000+k) - 0.25
			}

			// Move.
			srcA, dstA := src.clone(), dst.clone()
			srcB, dstB := src.clone(), dst.clone()
			sched.Move(srcA, dstA)
			refMoveOp(sched, srcB, dstB, false, opCopy, refTag)
			bitEqual(t, "Move dst", dstA.data, dstB.data)
			bitEqual(t, "Move src untouched", srcA.data, srcB.data)
			moveWant := append([]float64(nil), dstB.data...)

			// MoveReverse.
			srcA, dstA = src.clone(), dst.clone()
			srcB, dstB = src.clone(), dst.clone()
			sched.MoveReverse(srcA, dstA)
			refMoveOp(sched, srcB, dstB, true, opCopy, refTag)
			bitEqual(t, "MoveReverse src", srcA.data, srcB.data)
			bitEqual(t, "MoveReverse dst untouched", dstA.data, dstB.data)

			// MoveAdd.
			srcA, dstA = src.clone(), dst.clone()
			srcB, dstB = src.clone(), dst.clone()
			sched.MoveAdd(srcA, dstA)
			refMoveOp(sched, srcB, dstB, false, opAdd, refTag)
			bitEqual(t, "MoveAdd dst", dstA.data, dstB.data)

			// Repeat Move on the same schedule: the cached pack/unpack
			// buffers must not leak state between moves.
			srcA, dstA = src.clone(), dst.clone()
			sched.Move(srcA, dstA)
			bitEqual(t, "Move reuse", dstA.data, moveWant)
		})
	}
}

// TestMoveHalvesMatchReference checks the inter-program halves
// (MoveSend on the source side, MoveRecv on the destination side)
// against the reference executor, on a bijection with no same-process
// pairs so the halves carry the whole transfer.
func TestMoveHalvesMatchReference(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		nprocs := 2 + rng.Intn(4)
		words := 1 + rng.Intn(3)
		slotsPer := 8 + rng.Intn(25)
		m := nprocs * slotsPer
		// Destination process is always the next process over, with a
		// random slot permutation inside it: a bijection with sp != dp
		// everywhere.
		perm := make([]int, m)
		for sp := 0; sp < nprocs; sp++ {
			dp := (sp + 1) % nprocs
			sigma := rng.Perm(slotsPer)
			for so := 0; so < slotsPer; so++ {
				perm[sp*slotsPer+so] = dp*slotsPer + sigma[so]
			}
		}
		mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
			comm := p.Comm()
			full := buildSchedFromPerm(comm, slotsPer, Float64Elems(words), perm)
			if len(full.Local) != 0 {
				t.Fatalf("trial %d: bijection produced local pairs", trial)
			}
			// Each process plays both roles with separate schedule
			// instances, as two coupled programs would.
			sSend := &Schedule{union: comm, elems: m, elem: Float64Elems(words), Sends: full.Sends}
			sRecv := &Schedule{union: comm, elems: m, elem: Float64Elems(words), Recvs: full.Recvs}

			src := &refObj{words: words, data: make([]float64, slotsPer*words)}
			dst := &refObj{words: words, data: make([]float64, slotsPer*words)}
			for k := range src.data {
				src.data[k] = float64(comm.Rank()*1000+k) + 0.125
			}

			dstA, dstB := dst.clone(), dst.clone()
			sSend.MoveSend(src)
			sRecv.MoveRecv(dstA)
			refMoveOp(full, src, nil, false, opCopy, refTag)
			refMoveOp(full, nil, dstB, false, opCopy, refTag)
			bitEqual(t, "MoveSend/MoveRecv", dstA.data, dstB.data)

			// Reverse halves: data flows destination back to source.
			srcA, srcB := src.clone(), src.clone()
			sRecv.MoveReverseSend(dstA)
			sSend.MoveReverseRecv(srcA)
			refMoveOp(full, nil, dstA, true, opCopy, refTag+1)
			refMoveOp(full, srcB, nil, true, opCopy, refTag+1)
			bitEqual(t, "MoveReverseSend/Recv", srcA.data, srcB.data)
		})
	}
}

// TestMoveMatchesReferenceExecutorDtypes runs the randomized
// equivalence property over every element kind, including a 2-word
// struct-like type: the typed pack/unpack/local kernels must match the
// unit-at-a-time reference executor exactly.  Values are small
// integers, exact in every kind.
func TestMoveMatchesReferenceExecutorDtypes(t *testing.T) {
	dtypes := []ElemType{Float32, Int64, Int32, Byte, Float64Elems(2), {Kind: KindFloat32, Words: 3}}
	for di, et := range dtypes {
		et := et
		t.Run(et.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(5000 + di)))
			nprocs := 2 + rng.Intn(3)
			slotsPer := 8 + rng.Intn(25)
			m := nprocs * slotsPer
			perm := make([]int, m)
			if di%2 == 0 {
				shift := 1 + rng.Intn(m-1)
				for i := range perm {
					perm[i] = (i + shift) % m
				}
			} else {
				copy(perm, rng.Perm(m))
			}
			mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
				comm := p.Comm()
				sched := buildSchedFromPerm(comm, slotsPer, et, perm)
				src := &memObj{mem: MakeMem(et, slotsPer)}
				dst := &memObj{mem: MakeMem(et, slotsPer)}
				// Values stay below 128 so every kind (including byte,
				// even after one accumulation) represents them exactly.
				for u := 0; u < src.mem.Units(); u++ {
					src.mem.SetF(u, float64((comm.Rank()*37+u*3)%100))
					dst.mem.SetF(u, float64((u*7)%25))
				}

				memEqual := func(label string, got, want Mem) {
					t.Helper()
					for u := 0; u < want.Units(); u++ {
						if got.GetF(u) != want.GetF(u) {
							t.Fatalf("%s (%v): unit %d = %v, reference %v", label, et, u, got.GetF(u), want.GetF(u))
						}
					}
				}

				srcA, dstA := src.clone(), dst.clone()
				srcB, dstB := src.clone(), dst.clone()
				sched.Move(srcA, dstA)
				refMoveOp(sched, srcB, dstB, false, opCopy, refTag)
				memEqual("Move dst", dstA.mem, dstB.mem)
				memEqual("Move src untouched", srcA.mem, srcB.mem)

				srcA, dstA = src.clone(), dst.clone()
				srcB, dstB = src.clone(), dst.clone()
				sched.MoveReverse(srcA, dstA)
				refMoveOp(sched, srcB, dstB, true, opCopy, refTag)
				memEqual("MoveReverse src", srcA.mem, srcB.mem)

				srcA, dstA = src.clone(), dst.clone()
				srcB, dstB = src.clone(), dst.clone()
				sched.MoveAdd(srcA, dstA)
				refMoveOp(sched, srcB, dstB, false, opAdd, refTag)
				memEqual("MoveAdd dst", dstA.mem, dstB.mem)
			})
		})
	}
}

// TestMoveWrongKindPanics pins the full-element-type execution guard: a
// schedule built for float64 elements must refuse a same-width int64
// object instead of reinterpreting its bytes.
func TestMoveWrongKindPanics(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		sched := buildSchedFromPerm(p.Comm(), 4, Float64, []int{1, 0, 3, 2})
		i64 := &memObj{mem: MakeMem(Int64, 4)}
		f64 := &memObj{mem: MakeMem(Float64, 4)}
		defer func() {
			if recover() == nil {
				t.Error("move with same-width int64 object did not panic")
			}
		}()
		sched.Move(i64, f64)
	})
}

// TestMoveTagSpan pins the widened move-tag space: tags must stay
// inside mpsim's user-tag range and not collide for far more
// consecutive moves than the old 1024-tag window.
func TestMoveTagSpan(t *testing.T) {
	seen := map[int]bool{}
	for seq := 0; seq < 4096; seq++ {
		tag := moveTag(seq)
		if tag < tagMoveBase || tag >= 1<<21 {
			t.Fatalf("moveTag(%d) = %#x outside [%#x, %#x)", seq, tag, tagMoveBase, 1<<21)
		}
		if seen[tag] {
			t.Fatalf("moveTag repeats at seq %d (tag %#x)", seq, tag)
		}
		seen[tag] = true
	}
	if moveTag(tagMoveSpan) != tagMoveBase {
		t.Errorf("moveTag(%d) = %#x, want wrap to base %#x", tagMoveSpan, moveTag(tagMoveSpan), tagMoveBase)
	}
	if tagMoveSpan <= 1024 {
		t.Errorf("tagMoveSpan = %d, want wider than the old 1024-tag window", tagMoveSpan)
	}
}

// TestMoveBeyondOldTagWindow reuses one schedule for more moves than
// the old tag window held, verifying data stays correct across the
// boundary where tags previously wrapped.
func TestMoveBeyondOldTagWindow(t *testing.T) {
	const iters = 1050
	mpsim.RunSPMD(mpsim.Ideal(), 2, func(p *mpsim.Proc) {
		comm := p.Comm()
		// Rank 0's 4 elements feed rank 1's 4 elements.
		perm := []int{4, 5, 6, 7, 0, 1, 2, 3}
		sched := buildSchedFromPerm(comm, 4, Float64, perm)
		src := &refObj{words: 1, data: make([]float64, 4)}
		dst := &refObj{words: 1, data: make([]float64, 4)}
		for it := 0; it < iters; it++ {
			for k := range src.data {
				src.data[k] = float64(it*10 + comm.Rank()*1000 + k)
			}
			sched.Move(src, dst)
			want := float64(it*10 + (1-comm.Rank())*1000)
			for k, v := range dst.data {
				if v != want+float64(k) {
					t.Fatalf("iteration %d: dst[%d] = %v, want %v", it, k, v, want+float64(k))
				}
			}
		}
	})
}
