package serve

import "testing"

// referenceDigest is the content digest of spec's object holding
// value(position, word), summed rank by rank over sideReference's
// shares: the leader's sum, computed from the layouts alone.
func referenceDigest(spec *DistSpec, value func(pos, wd int) float64) uint64 {
	var h uint64
	for rank := 0; rank < spec.Procs; rank++ {
		_, d := sideReference(spec, rank, value)
		h += d
	}
	return h
}

// TestDigestPartitionInvariant: on every layout at 1 to 8 procs, the
// per-rank digests of a filled side sum to the Model's whole-array
// digest of the same contents, however the layout splits it.
func TestDigestPartitionInvariant(t *testing.T) {
	const seed = 17
	value := func(pos, wd int) float64 { return fillValue(seed, pos, wd) }
	for layout := uint8(0); layout < 5; layout++ {
		ran := 0
		for procs := uint8(0); procs < 8; procs++ {
			for words := uint8(0); words < 3; words++ {
				spec := fuzzSideSpec(layout, 22, 6, procs, words)
				if spec.validate(0) != nil || (spec.Library != "pcxxrt" && words > 0) {
					continue
				}
				m, err := NewModel(spec, spec)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := referenceDigest(&spec, value), m.Move(OpMove, seed); got != want {
					t.Errorf("%s: rank digests sum to %016x, the model's whole array %016x", spec.Key(), got, want)
				}
				ran++
			}
		}
		if ran == 0 {
			t.Errorf("layout %d: no valid spec at 1 to 8 procs", layout)
		}
	}
}

// checkModelPair registers src and dst, opens coupling id on them over
// c and runs script, failing every move whose served hash differs from
// the Model's or Standalone's.  It returns the served hashes in order.
func checkModelPair(t *testing.T, c *Client, id int, src, dst DistSpec, script []ScriptOp) []uint64 {
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
	m, err := NewModel(src, dst)
	if err != nil {
		t.Fatalf("model %s: %v", pair, err)
	}
	served := make([]uint64, len(script))
	for k, so := range script {
		st, err := c.Move(id, so.Kind, so.Seed)
		if err != nil {
			t.Fatalf("%s move %d: %v", pair, k, err)
		}
		served[k] = st.Hash
		want := m.Move(so.Kind, so.Seed)
		if st.Hash != want || ref[k].Hash != want {
			t.Errorf("%s move %d (kind %d, seed %d): served %016x, standalone %016x, model %016x",
				pair, k, so.Kind, so.Seed, st.Hash, ref[k].Hash, want)
		}
	}
	return served
}

// TestServeMatchesPositionModel drives one script over three layout
// pairs through a daemon on a socket.  Every move's hash must equal
// the Model's, the daemon's only content oracle that shares none of its
// result code, and Standalone's.
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
// values where the Model puts them, the same seed lands the
// same contents again, and another seed lands different ones.
func TestServeDataCorrectness(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	src, dst := testSpecs()
	script := []ScriptOp{{Kind: OpMove, Seed: 55}, {Kind: OpMove, Seed: 56}, {Kind: OpMove, Seed: 55}}
	served := checkModelPair(t, c, 1, src, dst, script)
	if served[0] != served[2] {
		t.Errorf("seed 55 landed %016x, then %016x", served[0], served[2])
	}
	if served[0] == served[1] {
		t.Error("seeds 55 and 56 landed the same contents")
	}
}

// TestServeMultiWordCollection moves a pC++ collection of 2-word
// elements between process counts and checks every word: the served
// hash equals the model's, and differs from the digest of the same
// landing side with each element's second word lost.
func TestServeMultiWordCollection(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	src := DistSpec{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{30}, Procs: 3, ElemWords: 2}
	dst := DistSpec{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{30}, Procs: 2, ElemWords: 2}
	served := checkModelPair(t, c, 1, src, dst, []ScriptOp{{Kind: OpMove, Seed: 9}})
	firstWords := func(pos, wd int) float64 {
		if wd == 1 {
			return 0
		}
		return fillValue(9, pos, wd)
	}
	if referenceDigest(&dst, firstWords) == served[0] {
		t.Error("the landed hash does not cover each element's second word")
	}
}
