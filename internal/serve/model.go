package serve

// The content digest and its reference.  A side's digest is
//
//	H = Σ_k W(k) · int64(value(k))   (mod 2^64),  k = position·words + word
//
// with W depending on k alone, so H adds up across ranks: each landing
// rank digests its own share and the leader sums the partials.  Values
// are small integers (fillValue), exact in float64 however often MoveAdd
// accumulates them, so H is linear in the moved contents as well.

// weight is W(k): an odd splitmix of k, so no word's contribution
// vanishes.
func weight(k int) uint64 {
	z := uint64(k)*0x632be59bd9b4e019 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}

// Model predicts the hash every move on one coupling must report, from
// the linearization definition alone: a move fills its sending side
// from the seed and lands it position by position.  It shares no code
// with the daemon's result path, only fillValue and W, so it catches a
// fault that Standalone, which runs the daemon's own execMove, would
// repeat.
type Model struct {
	n, words int
	dst      uint64 // the destination side's digest
}

// NewModel starts the reference for a coupling of src and dst with both
// sides zero, as an open leaves them.
func NewModel(src, dst DistSpec) (*Model, error) {
	if err := validatePair(&src, &dst); err != nil {
		return nil, err
	}
	return &Model{n: src.elems(), words: src.words()}, nil
}

// Move applies one op and returns the landing side's digest.  Move and
// MoveReverse land the seed's fill; MoveAdd adds it to the destination.
// A reverse move fills the destination and copies it back, so both
// sides then hold the fill.
func (m *Model) Move(kind int, seed int64) uint64 {
	var f uint64
	for k := 0; k < m.n*m.words; k++ {
		f += weight(k) * uint64(int64(fillValue(seed, k/m.words, k%m.words)))
	}
	if kind == OpMoveAdd {
		m.dst += f
	} else {
		m.dst = f
	}
	return m.dst
}
