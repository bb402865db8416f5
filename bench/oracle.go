package main

import "sync/atomic"

// The correctness oracle.  It knows nothing about how a library
// dereferences a Region: it works from the linearization definition
// alone.  A transfer pairs position k of the source set with position k
// of the destination set, so a content hash whose weight depends only
// on k must read the same on both sides after a Move:
//
//	H(side) = Σ_k W(k) · value(element at position k)   (mod 2^64)
//
// H is linear, which makes the reference O(1) per move: Move sets
// H(dst) = H(src), MoveAdd adds H(src) to H(acc), MoveReverse sets
// H(src) = H(dst), and bumping one element by 1 adds its weight.  The
// landing side pays one multiply-add per local slot.  Values are small
// integers, exact in float64 however often they accumulate.

// splitmix is the benchmark's only random source: every input is a pure
// function of -seed.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (s *splitmix) perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := s.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func mix(seed uint64, k int) uint64 {
	s := splitmix(seed + uint64(k)*0x632be59bd9b4e019)
	return s.next()
}

// weightOf is W(k): odd, so no element's contribution vanishes.
func weightOf(seed uint64, k int) uint64 { return mix(seed, k) | 1 }

// fillOf is the initial value of the source element at position k.
func fillOf(seed uint64, k int) float64 { return float64(int64(mix(seed^0xa5a5, k)%4096) - 2048) }

// sentinel marks slots outside the transfer's set (and halo padding);
// a move must never touch them.
const sentinel = -7777

// linset is one side's SetOfRegions as the driver sees it: size
// elements, and posOf mapping an element's global row-major index to
// its linearization position (-1 when the element is not in the set).
type linset struct {
	size  int
	posOf func(global int) int
}

// sectionSet is the unit-stride section [lo, hi) of a row-major array
// of the given shape: positions run row-major over the section.
func sectionSet(shape, lo, hi []int) linset {
	ext := make([]int, len(shape))
	size := 1
	for d := range shape {
		ext[d] = hi[d] - lo[d]
		size *= ext[d]
	}
	return linset{size: size, posOf: func(g int) int {
		pos, mul := 0, 1
		for d := len(shape) - 1; d >= 0; d-- {
			c := g%shape[d] - lo[d]
			g /= shape[d]
			if c < 0 || c >= ext[d] {
				return -1
			}
			pos += c * mul
			mul *= ext[d]
		}
		return pos
	}}
}

// indexSet is an explicit index list over n elements: position k is
// element idx[k].
func indexSet(n int, idx []int32) linset {
	inv := make([]int32, n)
	for i := range inv {
		inv[i] = -1
	}
	for k, g := range idx {
		inv[g] = int32(k)
	}
	return linset{size: len(idx), posOf: func(g int) int { return int(inv[g]) }}
}

// side is one rank's share of one array of a coupling, seen through its
// raw local storage.
type side struct {
	local []float64
	wt    []uint64 // per local slot: W(position), 0 outside the set
	inSet []int32  // local slots inside the set, for bumping
}

// newSide learns which local slot holds which global element by writing
// each element's global index through the library's own fill accessor
// and reading raw storage back, then installs the initial content:
// value(k) inside the set, sentinel everywhere else.
func newSide(local []float64, fillGlobal func(f func(global int) float64), set linset, wseed uint64, value func(k int) float64) *side {
	for i := range local {
		local[i] = -1
	}
	fillGlobal(func(g int) float64 { return float64(g) })
	sd := &side{local: local, wt: make([]uint64, len(local))}
	for i, g := range local {
		k := -1
		if g >= 0 {
			k = set.posOf(int(g))
		}
		if k < 0 {
			local[i] = sentinel
			continue
		}
		local[i] = value(k)
		sd.wt[i] = weightOf(wseed, k)
		sd.inSet = append(sd.inSet, int32(i))
	}
	return sd
}

// hash is this rank's share of H(side).
func (sd *side) hash() uint64 {
	var h uint64
	wt := sd.wt
	for i, v := range sd.local {
		h += uint64(int64(v)) * wt[i]
	}
	return h
}

// bump adds 1 to one in-set element chosen by n and returns its weight,
// the amount H(side) grew by.
func (sd *side) bump(n int) uint64 {
	if len(sd.inSet) == 0 {
		return 0
	}
	i := sd.inSet[n%len(sd.inSet)]
	sd.local[i]++
	return sd.wt[i]
}

// strays counts slots outside the set that no longer hold the sentinel.
func (sd *side) strays() int {
	n := 0
	for i, v := range sd.local {
		if sd.wt[i] == 0 && v != sentinel {
			n++
		}
	}
	return n
}

// arrayRef is the cross-rank state of one array's reference hash.
// Every rank adds to pend and got; only world rank 0 reads them and
// owns want, always on the far side of a barrier from the writers.
type arrayRef struct {
	want uint64        // H the array must have
	pend atomic.Uint64 // weights of bumps not yet folded into want
	got  atomic.Uint64 // partial hashes of the op just finished
}

// fold moves pending bumps into want.
func (a *arrayRef) fold() { a.want += a.pend.Swap(0) }

// settle compares the landed hash with want and clears it.
func (a *arrayRef) settle() bool { return a.got.Swap(0) == a.want }

// wantOf is the reference hash of a freshly filled side, from the
// definition alone.
func wantOf(set linset, wseed uint64, value func(k int) float64) uint64 {
	var h uint64
	for k := 0; k < set.size; k++ {
		h += uint64(int64(value(k))) * weightOf(wseed, k)
	}
	return h
}
