package serve

import (
	"hash/fnv"
	"testing"
)

// positionModel is a coupling as the linearization defines it and
// nothing more: each side is an array of elems × words values indexed
// by position, filled from a seed with fillValue.  Move copies source
// to destination by position, MoveAdd adds it, and MoveReverse fills
// the destination and copies it back.  It shares no code with the
// daemon's result path (side, sweep, buildSide, execMove): the hash it
// predicts comes from sideReference, which knows only the layouts.
type positionModel struct {
	src, dst DistSpec
	srcVals  []float64 // position-major: element i's word w at i*words+w
	dstVals  []float64
}

func newPositionModel(src, dst DistSpec) *positionModel {
	n := src.elems() * src.words()
	return &positionModel{src: src, dst: dst, srcVals: make([]float64, n), dstVals: make([]float64, n)}
}

// move applies one op and returns the hash the daemon must report:
// FNV-1a over the landing side's readback, its ranks in order, as the
// leader gathers it.
func (m *positionModel) move(kind int, seed int64) uint64 {
	words := m.src.words()
	fill := func(vals []float64) {
		for i := range vals {
			vals[i] = fillValue(seed, i/words, i%words)
		}
	}
	landing, spec := m.dstVals, &m.dst
	switch kind {
	case OpMove:
		fill(m.srcVals)
		copy(m.dstVals, m.srcVals)
	case OpMoveAdd:
		fill(m.srcVals)
		for i, v := range m.srcVals {
			m.dstVals[i] += v
		}
	case OpMoveReverse:
		fill(m.dstVals)
		copy(m.srcVals, m.dstVals)
		landing, spec = m.srcVals, &m.src
	}
	return m.hash(landing, spec)
}

// hash is FNV-1a over the readback of one side holding vals, its ranks
// in order, as the leader gathers it.
func (m *positionModel) hash(vals []float64, spec *DistSpec) uint64 {
	words := m.src.words()
	value := func(pos, wd int) float64 { return vals[pos*words+wd] }
	h := fnv.New64a()
	for rank := 0; rank < spec.Procs; rank++ {
		_, out := sideReference(spec, rank, value)
		h.Write(out)
	}
	return h.Sum64()
}

// checkModelPair registers src and dst, opens coupling id on them over
// c and runs script, failing every move whose served hash differs from
// the position model's or Standalone's.  It returns the model after the
// script and the served hashes in order.
func checkModelPair(t *testing.T, c *Client, id int, src, dst DistSpec, script []ScriptOp) (*positionModel, []uint64) {
	t.Helper()
	pair := PairKey(&src, &dst)
	if err := c.RegisterDist(2*id, src); err != nil {
		t.Fatalf("register %s: %v", src.Key(), err)
	}
	if err := c.RegisterDist(2*id+1, dst); err != nil {
		t.Fatalf("register %s: %v", dst.Key(), err)
	}
	if _, _, err := c.OpenCoupling(id, 2*id, 2*id+1); err != nil {
		t.Fatalf("open %s: %v", pair, err)
	}
	ref, err := Standalone(src, dst, script)
	if err != nil {
		t.Fatalf("standalone %s: %v", pair, err)
	}
	m := newPositionModel(src, dst)
	served := make([]uint64, len(script))
	for k, so := range script {
		st, err := c.Move(id, so.Kind, so.Seed)
		if err != nil {
			t.Fatalf("%s move %d: %v", pair, k, err)
		}
		served[k] = st.Hash
		want := m.move(so.Kind, so.Seed)
		if st.Hash != want || ref[k].Hash != want {
			t.Errorf("%s move %d (kind %d, seed %d): served %016x, standalone %016x, model %016x",
				pair, k, so.Kind, so.Seed, st.Hash, ref[k].Hash, want)
		}
	}
	return m, served
}

// TestServeMatchesPositionModel drives one script over three layout
// pairs through a daemon on a socket.  Every move's hash must equal
// the position model's, the daemon's only content oracle that shares
// none of its result code, and Standalone's.
func TestServeMatchesPositionModel(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "model")
	defer c.Close()
	vecSrc, vecDst := testSpecs()
	pairs := [][2]DistSpec{
		{vecSrc, vecDst},
		{
			{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{30}, Procs: 3, ElemWords: 2},
			{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{30}, Procs: 2, ElemWords: 2},
		},
		{
			{Library: "mbparti", Layout: "block2d", Shape: []int{16, 16}, Procs: 4},
			{Library: "hpfrt", Layout: "rowblock", Shape: []int{16, 16}, Procs: 4},
		},
	}
	script := []ScriptOp{
		{Kind: OpMove, Seed: 11},
		{Kind: OpMoveAdd, Seed: 22},
		{Kind: OpMoveAdd, Seed: 22},
		{Kind: OpMoveReverse, Seed: 33},
		{Kind: OpMoveAdd, Seed: 44},
		{Kind: OpMove, Seed: 11},
	}
	for i, p := range pairs {
		checkModelPair(t, c, i+1, p[0], p[1], script)
	}
}

// TestServeDataCorrectness checks element movement end to end on the
// canonical vector pair: a seed-filled move lands the generator's
// values where the position model puts them, the same seed lands the
// same contents again, and another seed lands different ones.
func TestServeDataCorrectness(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	src, dst := testSpecs()
	script := []ScriptOp{{Kind: OpMove, Seed: 55}, {Kind: OpMove, Seed: 56}, {Kind: OpMove, Seed: 55}}
	_, served := checkModelPair(t, c, 1, src, dst, script)
	if served[0] != served[2] {
		t.Errorf("seed 55 landed %016x, then %016x", served[0], served[2])
	}
	if served[0] == served[1] {
		t.Error("seeds 55 and 56 landed the same contents")
	}
}

// TestServeMultiWordCollection moves a pC++ collection of 2-word
// elements between process counts and checks every word: the served
// hash equals the model's, and the model's hash changes when each
// element's second word is lost.
func TestServeMultiWordCollection(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	src := DistSpec{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{30}, Procs: 3, ElemWords: 2}
	dst := DistSpec{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{30}, Procs: 2, ElemWords: 2}
	m, served := checkModelPair(t, c, 1, src, dst, []ScriptOp{{Kind: OpMove, Seed: 9}})
	firstWords := append([]float64(nil), m.dstVals...)
	for i := 1; i < len(firstWords); i += 2 {
		firstWords[i] = 0
	}
	if m.hash(firstWords, &dst) == served[0] {
		t.Error("the landed hash does not cover each element's second word")
	}
}
