package codec

import (
	"bytes"
	"math"
	"testing"
	"unsafe"
)

// FuzzWireRoundTrip drives the Writer with one value of every scalar
// put and reads them back in order.  Floats are compared by bit
// pattern so NaN payloads round-trip exactly, the property the move
// executor's pack/unpack path relies on.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(int32(0), int64(0), 0.0, "", []byte(nil))
	f.Add(int32(-5), int64(1<<40), 3.25, "hello", []byte{1, 2, 3})
	f.Add(int32(math.MaxInt32), int64(math.MinInt64), math.NaN(), "\x00\xff", []byte{0xde, 0xad})
	f.Fuzz(func(t *testing.T, i32 int32, i64 int64, fv float64, s string, raw []byte) {
		var w Writer
		w.PutInt32(i32)
		w.PutInt64(i64)
		w.PutFloat64(fv)
		w.PutString(s)
		w.PutBytes(raw)
		r := NewReader(w.Bytes())
		if got := r.Int32(); got != i32 {
			t.Fatalf("Int32 = %d, want %d", got, i32)
		}
		if got := r.Int64(); got != i64 {
			t.Fatalf("Int64 = %d, want %d", got, i64)
		}
		if got := r.Float64(); math.Float64bits(got) != math.Float64bits(fv) {
			t.Fatalf("Float64 = %x, want %x", math.Float64bits(got), math.Float64bits(fv))
		}
		if got := r.String(); got != s {
			t.Fatalf("String = %q, want %q", got, s)
		}
		got := r.Bytes()
		if len(got) != len(raw) {
			t.Fatalf("Bytes len = %d, want %d", len(got), len(raw))
		}
		for i := range raw {
			if got[i] != raw[i] {
				t.Fatalf("Bytes[%d] = %d, want %d", i, got[i], raw[i])
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left over", r.Remaining())
		}
	})
}

// FuzzTypedKernelRoundTrip exercises every typed kernel the move
// executor packs and unpacks with: raw fuzz bytes are reinterpreted as
// a scalar slice of the selected kind (sel%5), encoded with Append,
// decoded with Into, and compared bit for bit; Scalars must view the
// encoded bytes as the same values; and a strided Put gather (stride
// sel/5%4+1) must write the bytes Append writes for the same values,
// and scatter back through Get to the values it took.
func FuzzTypedKernelRoundTrip(f *testing.F) {
	f.Add([]byte(nil), byte(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, byte(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0x80, 0x7f}, byte(2))
	f.Add([]byte{0x01, 0x00, 0x00, 0xc0, 0x7f, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}, byte(3))
	f.Add([]byte{0, 0xff, 0x80, 0x7f, 1}, byte(4+5))
	f.Add([]byte{0, 0, 0xc0, 0x7f, 1, 0, 0x80, 0xff, 9, 9, 9, 9, 0, 0, 0, 0x80, 7, 7, 7, 7}, byte(1+10))
	f.Fuzz(func(t *testing.T, raw []byte, sel byte) {
		stride := int(sel/5%4) + 1
		switch sel % 5 {
		case 0:
			typedRoundTrip[float64](t, raw, stride)
		case 1:
			typedRoundTrip[float32](t, raw, stride)
		case 2:
			typedRoundTrip[int64](t, raw, stride)
		case 3:
			typedRoundTrip[int32](t, raw, stride)
		case 4:
			typedRoundTrip[byte](t, raw, stride)
		}
	})
}

// fromRaw reinterprets raw's whole units as scalars of kind T.
func fromRaw[T Scalar](raw []byte) []T {
	vs := make([]T, len(raw)/int(unsafe.Sizeof(*new(T))))
	Into(vs, raw[:len(View(vs))])
	return vs
}

// sameBits reports whether two scalar slices are bit-for-bit equal (NaN
// payloads included).
func sameBits[T Scalar](a, b []T) bool { return bytes.Equal(View(a), View(b)) }

func typedRoundTrip[T Scalar](t *testing.T, raw []byte, stride int) {
	vs := fromRaw[T](raw)
	b := Append(nil, vs)
	if len(b) != len(View(vs)) || !bytes.Equal(b, raw[:len(b)]) {
		t.Fatalf("Append[%T] re-encoded % x as % x", vs, raw[:len(View(vs))], b)
	}
	back := make([]T, len(vs))
	if n := Into(back, b); n != len(vs) || !sameBits(back, vs) {
		t.Fatalf("Into[%T] decoded %d values %v, want %v", vs, n, back, vs)
	}

	if view := Scalars[T](b); len(view) != len(vs) || hostLE && !sameBits(view, vs) {
		t.Fatalf("Scalars[%T] viewed %d values %v, want %v", vs, len(view), view, vs)
	}

	// Gather every stride-th value with Put, as a strided run packs.
	var picked []T
	for i := 0; i < len(vs); i += stride {
		picked = append(picked, vs[i])
	}
	size := int(unsafe.Sizeof(*new(T)))
	gathered := make([]byte, len(picked)*size)
	for k, i := 0, 0; i < len(vs); k, i = k+1, i+stride {
		Put(gathered[k*size:], vs[i])
	}
	if !bytes.Equal(gathered, Append(nil, picked)) {
		t.Fatalf("Put[%T] gather at stride %d wrote % x, Append % x", vs, stride, gathered, Append(nil, picked))
	}
	scattered := make([]T, len(vs))
	for k, i := 0, 0; i < len(vs); k, i = k+1, i+stride {
		scattered[i] = Get[T](gathered[k*size:])
	}
	for k, i := 0, 0; i < len(vs); k, i = k+1, i+stride {
		if !sameBits(scattered[i:i+1], picked[k:k+1]) {
			t.Fatalf("Get[%T] scatter at stride %d: element %d = %v, want %v", vs, stride, i, scattered[i], vs[i])
		}
	}
}

// FuzzSliceWireRoundTrip round-trips the length-prefixed int32 slice
// the schedule metadata wire format is built from.
func FuzzSliceWireRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0x7f, 0xc0, 0xff, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, raw []byte) {
		i32 := fromRaw[int32](raw)
		var w Writer
		w.PutInt32s(i32)
		r := NewReader(w.Bytes())
		got := r.Int32s()
		if !sameBits(got, i32) {
			t.Fatalf("Int32s = %v, want %v", got, i32)
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left over", r.Remaining())
		}
	})
}
