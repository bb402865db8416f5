package codec

import (
	"bytes"
	"slices"
	"testing"
)

// The zero-copy data plane decodes payload segments that can be views
// of element storage; the one aliasing case the executor permits to
// reach the kernels is in-place decode, where the payload bytes ARE the
// destination's backing bytes.  These tests pin the kernels' behavior
// under exact aliasing (identity for Into, the scalars themselves for
// Scalars) and forward overlap (memmove-down semantics: each element is
// read before any write can clobber it, because the source sits ahead
// of the destination), for every scalar kind.
//
// The views only equal the wire encoding on a little-endian host, like
// the executor's own view path; big-endian hosts skip.

func requireLE(t *testing.T) {
	t.Helper()
	if !hostLE {
		t.Skip("in-place views equal the wire encoding only on little-endian hosts")
	}
}

// ramp returns n distinct values of T, the first two negative (wrapped,
// for byte).
func ramp[T Scalar](n int) []T {
	vs := make([]T, n)
	for i := range vs {
		vs[i] = T(3*i) - 5
	}
	return vs
}

func aliasedIdentity[T Scalar](t *testing.T, vs []T) {
	t.Helper()
	want := slices.Clone(vs)
	if n := Into(vs, View(vs)); n != len(want) {
		t.Errorf("aliased Into[%T] decoded %d values, want %d", want[0], n, len(want))
	}
	if !slices.Equal(vs, want) {
		t.Errorf("aliased Into[%T] mutated its own source: %v", want[0], vs)
	}
}

func TestIntoKernelsAliasedIdentity(t *testing.T) {
	requireLE(t)
	aliasedIdentity(t, ramp[float64](5))
	aliasedIdentity(t, ramp[float32](5))
	aliasedIdentity(t, ramp[int64](5))
	aliasedIdentity(t, ramp[int32](5))
	aliasedIdentity(t, ramp[byte](5))
}

// aliasedScalars views the bytes of vs as scalars again: the view must
// be vs itself, so accumulating through it doubles every element, as
// the executor's add kernel does to a lane unpacked in place.
func aliasedScalars[T Scalar](t *testing.T, vs []T) {
	t.Helper()
	want := slices.Clone(vs)
	for i := range want {
		want[i] += want[i]
	}
	view := Scalars[T](View(vs))
	if len(view) != len(vs) || &view[0] != &vs[0] {
		t.Fatalf("Scalars[%T] of a view of %d values is %d values elsewhere", want[0], len(vs), len(view))
	}
	for i, v := range view {
		vs[i] += v
	}
	if !slices.Equal(vs, want) {
		t.Errorf("accumulating through Scalars[%T] = %v, want doubled %v", want[0], vs, want)
	}
}

func TestScalarsAliasedDouble(t *testing.T) {
	requireLE(t)
	aliasedScalars(t, ramp[float64](5))
	aliasedScalars(t, ramp[float32](5))
	aliasedScalars(t, ramp[int64](5))
	aliasedScalars(t, ramp[int32](5))
	aliasedScalars(t, ramp[byte](100)) // 3*i-5 passes 128: doubling wraps mod 256
}

// forwardShift decodes the bytes of vs[1:] into vs[:n-1]: the source
// stays ahead of the writes, so the result is a clean shift-down.
func forwardShift[T Scalar](t *testing.T, vs []T) {
	t.Helper()
	want := append(slices.Clone(vs[1:]), vs[len(vs)-1])
	Into(vs[:len(vs)-1], View(vs[1:]))
	if !slices.Equal(vs, want) {
		t.Errorf("forward-overlap Into[%T] = %v, want %v", want[0], vs, want)
	}
}

func TestIntoKernelsForwardOverlapShift(t *testing.T) {
	requireLE(t)
	forwardShift(t, ramp[float64](6))
	forwardShift(t, ramp[float32](6))
	forwardShift(t, ramp[int64](6))
	forwardShift(t, ramp[int32](6))
	forwardShift(t, ramp[byte](6))
}

// TestPortableBranchMatchesFast runs the branch of Append and Into no
// little-endian host otherwise executes: with hostLE flipped off they
// must produce the bytes and values the memmove branch does, and those
// bytes must be little-endian.
func TestPortableBranchMatchesFast(t *testing.T) {
	requireLE(t)
	run := func() []portableResult {
		return []portableResult{
			portableCase(ramp[float64](7)),
			portableCase(ramp[float32](7)),
			portableCase(ramp[int64](7)),
			portableCase(ramp[int32](7)),
			portableCase(ramp[byte](7)),
			portableCase([]int32{0x01020304}),
			portableCase([]float64{1}),
		}
	}
	fast := run()
	hostLE = false
	t.Cleanup(func() { hostLE = true })
	portable := run()
	for i := range fast {
		if !bytes.Equal(fast[i].wire, portable[i].wire) {
			t.Errorf("case %d: portable Append wrote % x, fast % x", i, portable[i].wire, fast[i].wire)
		}
		if !bytes.Equal(fast[i].back, portable[i].back) {
			t.Errorf("case %d: portable Into decoded % x, fast % x", i, portable[i].back, fast[i].back)
		}
	}
	if want := []byte{0xab, 4, 3, 2, 1}; !bytes.Equal(portable[5].wire, want) {
		t.Errorf("int32 0x01020304 on the wire = % x, want % x", portable[5].wire, want)
	}
	if want := []byte{0xab, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}; !bytes.Equal(portable[6].wire, want) {
		t.Errorf("float64 1 on the wire = % x, want % x", portable[6].wire, want)
	}
}

// portableResult is the wire bytes of one encode and the native bytes
// of the values decoded back from them.
type portableResult struct{ wire, back []byte }

// portableCase encodes vs after a one-byte prefix and decodes it back.
func portableCase[T Scalar](vs []T) portableResult {
	wire := Append([]byte{0xab}, vs)
	back := make([]T, len(vs))
	Into(back, wire[1:])
	return portableResult{wire, View(back)}
}
