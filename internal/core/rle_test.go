package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"metachaos/internal/codec"
)

func roundTripPairs(as, bs []int32) ([]int32, []int32) {
	var w codec.Writer
	encodePairs(&w, as, bs)
	var ga, gb []int32
	decodePairs(codec.NewReader(w.Bytes()), func(a, b int32) {
		ga = append(ga, a)
		gb = append(gb, b)
	})
	return ga, gb
}

func TestRLEPairsRegular(t *testing.T) {
	n := 1000
	as := make([]int32, n)
	bs := make([]int32, n)
	for i := range as {
		as[i] = 3                // constant
		bs[i] = int32(100 + 2*i) // arithmetic
	}
	var w codec.Writer
	encodePairs(&w, as, bs)
	if w.Len() > 64 {
		t.Errorf("regular stream of %d pairs encoded to %d bytes; want a handful of runs", n, w.Len())
	}
	ga, gb := roundTripPairs(as, bs)
	for i := range as {
		if ga[i] != as[i] || gb[i] != bs[i] {
			t.Fatalf("pair %d: got (%d,%d) want (%d,%d)", i, ga[i], gb[i], as[i], bs[i])
		}
	}
}

func TestRLEPairsIrregular(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	as := make([]int32, n)
	bs := make([]int32, n)
	for i := range as {
		as[i] = int32(rng.Intn(1000))
		bs[i] = int32(rng.Intn(1000))
	}
	ga, gb := roundTripPairs(as, bs)
	if len(ga) != n {
		t.Fatalf("decoded %d pairs, want %d", len(ga), n)
	}
	for i := range as {
		if ga[i] != as[i] || gb[i] != bs[i] {
			t.Fatalf("pair %d mismatch", i)
		}
	}
}

func TestRLEPairsEmpty(t *testing.T) {
	ga, gb := roundTripPairs(nil, nil)
	if len(ga) != 0 || len(gb) != 0 {
		t.Errorf("empty round trip produced %d/%d values", len(ga), len(gb))
	}
}

func TestRLEPairsRunBoundaries(t *testing.T) {
	// Alternating short runs and literals exercise the boundary logic.
	as := []int32{1, 2, 3, 4, 9, 1, 1, 1, 1, 1, 7, 8}
	bs := []int32{0, 0, 0, 0, 5, 2, 4, 6, 8, 10, 1, 1}
	ga, gb := roundTripPairs(as, bs)
	for i := range as {
		if ga[i] != as[i] || gb[i] != bs[i] {
			t.Fatalf("pair %d: got (%d,%d) want (%d,%d)", i, ga[i], gb[i], as[i], bs[i])
		}
	}
}

func TestQuickRLEPairsRoundTrip(t *testing.T) {
	f := func(seed int64, n8 uint8, runs bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8)
		as := make([]int32, n)
		bs := make([]int32, n)
		for i := range as {
			if runs && i > 0 && rng.Intn(3) != 0 {
				as[i] = as[i-1] + int32(rng.Intn(2))
				bs[i] = bs[i-1] + int32(rng.Intn(3))
			} else {
				as[i] = int32(rng.Intn(100))
				bs[i] = int32(rng.Intn(100))
			}
		}
		ga, gb := roundTripPairs(as, bs)
		if len(ga) != n {
			return false
		}
		for i := range as {
			if ga[i] != as[i] || gb[i] != bs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// pairRun is count pairs in arithmetic progression: the k-th is
// (a0+k*da, b0+k*db).
type pairRun struct {
	a0, da, b0, db, count int32
}

// encodePairRuns writes the pairs of runs, in order, as one stream.
func encodePairRuns(runs []pairRun) []byte {
	var e pairEncoder
	e.begin()
	for _, r := range runs {
		e.putRun(LocalRun{Src: r.a0, SrcStride: r.da, Dst: r.b0, DstStride: r.db, Count: r.count})
	}
	return e.finish()
}

// expandPairRuns lists the pairs of runs, in order.
func expandPairRuns(runs []pairRun) (as, bs []int32) {
	for _, r := range runs {
		for k := int32(0); k < r.count; k++ {
			as = append(as, r.a0+k*r.da)
			bs = append(bs, r.b0+k*r.db)
		}
	}
	return as, bs
}

// checkRunFed requires the run-fed encoder to write, for runs, the
// bytes the element-wise scan writes for their expansion.
func checkRunFed(t *testing.T, name string, runs []pairRun) {
	t.Helper()
	as, bs := expandPairRuns(runs)
	var want codec.Writer
	encodePairs(&want, as, bs)
	if got := encodePairRuns(runs); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("%s: runs %v\n expand to a=%v b=%v\n run-fed bytes      %v\n element-wise bytes %v",
			name, runs, as, bs, got, want.Bytes())
	}
}

// TestRLERunFedHandCases are the inputs that break naive run-fed
// encoders: whether pairs fuse into a token must not depend on where
// the input happened to be cut into runs.
func TestRLERunFedHandCases(t *testing.T) {
	long := pairRun{3, 0, 100, 2, 50}
	cases := map[string][]pairRun{
		"empty":               nil,
		"one short run":       {{3, 0, 7, 1, 3}},
		"one run of minRun":   {{3, 0, 7, 1, minRun}},
		"singleton then long": {{3, 0, 98, 0, 1}, long},
		"pair then long":      {{3, 0, 96, 2, 2}, long},
		"triple then long":    {{3, 0, 94, 2, 3}, long},
		"long then singleton": {long, {3, 0, 200, 0, 1}},
		"long then pair":      {long, {3, 0, 200, 2, 2}},
		"long then triple":    {long, {3, 0, 200, 2, 3}},
		// The step across the boundary equals the stride: one token.
		"two runs that fuse":     {{3, 0, 0, 2, 10}, {3, 0, 20, 2, 10}},
		"three singletons fuse":  {{3, 0, 0, 0, 1}, {3, 0, 5, 0, 1}, {3, 0, 10, 0, 1}, {3, 0, 15, 0, 1}},
		"boundary step differs":  {{3, 0, 0, 2, 10}, {3, 0, 21, 2, 10}},
		"same step, other peer":  {{3, 0, 0, 2, 10}, {4, 0, 20, 2, 10}},
		"literal then run":       {{3, 0, 0, 0, 1}, {3, 0, 10, 1, 20}},
		"two literals then run":  {{3, 0, 0, 0, 1}, {3, 0, 50, 0, 1}, {3, 0, 10, 1, 20}},
		"run absorbs next start": {{3, 0, 0, 1, 6}, {3, 0, 6, 5, 4}},
		// A short candidate whose tail starts the next progression.
		"short, tail restarts":   {{3, 0, 0, 7, 3}, {3, 0, 15, 1, 8}},
		"peer progression":       {{0, 1, 5, 0, 4}, {0, 1, 6, 0, 4}},
		"peers deal round robin": {{0, 0, 0, 0, 1}, {1, 0, 0, 0, 1}, {2, 0, 0, 0, 1}, {3, 0, 0, 0, 1}, {0, 0, 1, 0, 1}, {1, 0, 1, 0, 1}},
		"both sides step":        {{0, 2, 9, -3, 7}, {14, 2, -12, -3, 7}},
		// The next pair sits where the candidate would be after as many
		// of the *new* run's steps, not its own: it must not extend it.
		"coincident restart": {{0, 0, 0, 5, 2}, {0, 0, 6, 3, 5}},
	}
	for name, runs := range cases {
		checkRunFed(t, name, runs)
	}
}

// TestQuickRLERunFedByteIdentical draws run lists from small values, so
// boundaries line up by accident as often as not, and cuts each one
// into runs a second way: the bytes depend on the pairs alone.
func TestQuickRLERunFedByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		var runs []pairRun
		for n := rng.Intn(7); n > 0; n-- {
			r := pairRun{int32(rng.Intn(3)), int32(rng.Intn(3) - 1), int32(rng.Intn(12)), int32(rng.Intn(5) - 2), int32(1 + rng.Intn(9))}
			if len(runs) > 0 && rng.Intn(2) == 0 {
				// Continue the previous run's progression, exactly or off
				// by one.
				p := runs[len(runs)-1]
				r.a0, r.b0 = p.a0+p.count*p.da, p.b0+p.count*p.db+int32(rng.Intn(3)/2)
				if rng.Intn(2) == 0 {
					r.da, r.db = p.da, p.db
				}
			}
			runs = append(runs, r)
		}
		checkRunFed(t, "drawn", runs)

		var recut []pairRun
		for _, r := range runs {
			for r.count > 0 {
				n := 1 + int32(rng.Intn(int(r.count)))
				recut = append(recut, pairRun{r.a0, r.da, r.b0, r.db, n})
				r.a0, r.b0, r.count = r.a0+n*r.da, r.b0+n*r.db, r.count-n
			}
		}
		checkRunFed(t, "recut", recut)
		if t.Failed() {
			t.Fatalf("iteration %d", i)
		}
	}
}

// TestStreamWalkerMatchesElementwise encodes random pair sequences, cut
// at random into putRun calls, and decodes each stream into lanes and
// into a local list: both must equal the lists the one-element
// appenders build from the pairs, and the walk must stop exactly at the
// stream's end.  Across the draws the streams hold literal blocks, run
// tokens and run tokens whose key moves.
func TestStreamWalkerMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var lits, runs, moving int
	for i := 0; i < 5000; i++ {
		var drawn []pairRun
		for n := rng.Intn(8); n > 0; n-- {
			r := pairRun{int32(rng.Intn(6)), int32(rng.Intn(2)), int32(rng.Intn(40)), int32(rng.Intn(7) - 3), int32(1 + rng.Intn(9))}
			if rng.Intn(3) == 0 {
				r.da = -1
				r.a0 += r.count - 1
			}
			drawn = append(drawn, r)
		}
		var e pairEncoder
		e.begin()
		for _, r := range drawn {
			for r.count > 0 {
				n := 1 + int32(rng.Intn(int(r.count)))
				e.putRun(LocalRun{Src: r.a0, SrcStride: r.da, Dst: r.b0, DstStride: r.db, Count: n})
				r.a0, r.b0, r.count = r.a0+n*r.da, r.b0+n*r.db, r.count-n
			}
		}
		stream := append(e.finish(), 0xee) // a byte after the stream
		as, bs := expandPairRuns(drawn)

		for st := openStream(stream); st.left > 0; {
			tok, l := st.next()
			switch {
			case l != nil:
				lits++
			case tok.SrcStride == 0:
				runs++
			default:
				moving++
			}
		}

		var got, want lanes
		var gotLocal, wantLocal []LocalRun
		rest, n := got.addStream(stream)
		gotLocal, restLocal, nLocal := appendLocalStream(nil, stream)
		for k := range as {
			pl := want.lane(int(as[k]))
			pl.Runs = appendOffsetRun(pl.Runs, bs[k])
			wantLocal = appendLocalRun(wantLocal, as[k], bs[k])
		}
		switch {
		case n != len(as) || nLocal != len(as):
			t.Fatalf("draw %d: walked %d and %d pairs, want %d", i, n, nLocal, len(as))
		case len(rest) != 1 || len(restLocal) != 1:
			t.Fatalf("draw %d: walk stopped %d and %d bytes before the end, want 1", i, len(rest), len(restLocal))
		case !reflect.DeepEqual(got.list, want.list):
			t.Fatalf("draw %d: pairs a=%v b=%v\n lanes %v\n want  %v", i, as, bs, got.list, want.list)
		case !reflect.DeepEqual(gotLocal, wantLocal):
			t.Fatalf("draw %d: pairs a=%v b=%v\n local %v\n want  %v", i, as, bs, gotLocal, wantLocal)
		}
	}
	if lits == 0 || runs == 0 || moving == 0 {
		t.Errorf("streams held %d literal blocks, %d run tokens and %d moving-key run tokens; want some of each", lits, runs, moving)
	}
}
