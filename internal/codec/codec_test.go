package codec

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var w Writer
	w.PutInt32(-42)
	w.PutInt64(1 << 40)
	w.PutFloat64(3.14159)
	w.PutInt32s([]int32{1, -2, 3})
	w.PutInts([]int{7, 8, 9})
	w.PutString("meta-chaos")
	w.PutBytes([]byte{0xde, 0xad})

	r := NewReader(w.Bytes())
	if got := r.Int32(); got != -42 {
		t.Errorf("Int32=%d", got)
	}
	if got := r.Int64(); got != 1<<40 {
		t.Errorf("Int64=%d", got)
	}
	if got := r.Float64(); got != 3.14159 {
		t.Errorf("Float64=%g", got)
	}
	if got := r.Int32s(); !reflect.DeepEqual(got, []int32{1, -2, 3}) {
		t.Errorf("Int32s=%v", got)
	}
	if got := r.Ints(); !reflect.DeepEqual(got, []int{7, 8, 9}) {
		t.Errorf("Ints=%v", got)
	}
	if got := r.String(); got != "meta-chaos" {
		t.Errorf("String=%q", got)
	}
	if got := r.Bytes(); !reflect.DeepEqual(got, []byte{0xde, 0xad}) {
		t.Errorf("Bytes=%v", got)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining=%d want 0", r.Remaining())
	}
}

func TestEmptySlices(t *testing.T) {
	var w Writer
	w.PutInt32s(nil)
	w.PutString("")
	r := NewReader(w.Bytes())
	if got := r.Int32s(); len(got) != 0 {
		t.Errorf("Int32s=%v", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String=%q", got)
	}
}

func TestReaderOverrunPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overrun")
		}
	}()
	NewReader([]byte{1, 2}).Int32()
}

func TestBarePayloads(t *testing.T) {
	fs := []float64{1, math.Inf(1), math.SmallestNonzeroFloat64, -0}
	if got := BytesToFloat64s(Float64sToBytes(fs)); !reflect.DeepEqual(got, fs) {
		t.Errorf("float64 round trip: %v", got)
	}
}

func TestBarePayloadSizeMismatchPanics(t *testing.T) {
	for _, f := range []func(){
		func() { BytesToFloat64s(make([]byte, 7)) },
		func() { Into(make([]int32, 2), make([]byte, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for misaligned payload")
				}
			}()
			f()
		}()
	}
}

func TestAppendFloat64s(t *testing.T) {
	// Odd lengths, including empty, and append to a non-empty prefix.
	for _, n := range []int{0, 1, 3, 7, 17} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i)*1.5 - 3
		}
		got := Append(nil, vs)
		if !reflect.DeepEqual(got, Float64sToBytes(vs)) && n > 0 {
			t.Errorf("n=%d: Append(nil) != Float64sToBytes", n)
		}
		prefix := []byte{0xab, 0xcd}
		withPrefix := Append(append([]byte(nil), prefix...), vs)
		if len(withPrefix) != 2+8*n {
			t.Fatalf("n=%d: appended length %d", n, len(withPrefix))
		}
		if withPrefix[0] != 0xab || withPrefix[1] != 0xcd {
			t.Errorf("n=%d: prefix clobbered", n)
		}
		if !reflect.DeepEqual(BytesToFloat64s(withPrefix[2:]), vs) && n > 0 {
			t.Errorf("n=%d: payload after prefix wrong", n)
		}
	}
}

func TestAppendFloat64sReusesBuffer(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5}
	buf := Append(nil, vs)
	grown := buf
	for i := 0; i < 10; i++ {
		grown = Append(grown[:0], vs)
	}
	if &grown[0] != &buf[0] {
		t.Error("same-size re-encode reallocated the buffer")
	}
	if !reflect.DeepEqual(BytesToFloat64s(grown), vs) {
		t.Errorf("reused-buffer payload: %v", BytesToFloat64s(grown))
	}
}

func TestFloat64sInto(t *testing.T) {
	for _, n := range []int{0, 1, 3, 9} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = math.Sqrt(float64(i + 1))
		}
		b := Float64sToBytes(vs)
		dst := make([]float64, n+2) // larger than needed is fine
		for i := range dst {
			dst[i] = -99
		}
		if got := Into(dst, b); got != n {
			t.Fatalf("n=%d: decoded %d values", n, got)
		}
		if !reflect.DeepEqual(dst[:n], vs) && n > 0 {
			t.Errorf("n=%d: decoded %v", n, dst[:n])
		}
		if dst[n] != -99 {
			t.Errorf("n=%d: wrote past the decoded count", n)
		}
	}
}

func TestFloat64sIntoPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"misaligned payload": func() { Into(make([]float64, 4), make([]byte, 9)) },
		"short destination":  func() { Into(make([]float64, 1), make([]byte, 16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestQuickAppendFloat64sRoundTrip(t *testing.T) {
	f := func(prefix []float64, vs []float64) bool {
		buf := Append(nil, prefix)
		buf = Append(buf, vs)
		all := append(append([]float64(nil), prefix...), vs...)
		dst := make([]float64, len(all))
		if Into(dst, buf) != len(all) {
			return false
		}
		for i := range all {
			if math.Float64bits(dst[i]) != math.Float64bits(all[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFloat64RoundTrip(t *testing.T) {
	f := func(vs []float64) bool {
		got := BytesToFloat64s(Float64sToBytes(vs))
		if len(got) != len(vs) {
			return false
		}
		for i := range vs {
			// NaN-safe bitwise comparison.
			if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompositeRoundTrip(t *testing.T) {
	f := func(a int32, b []int32, s string, fs []float64) bool {
		var w Writer
		w.PutInt32(a)
		w.PutInt32s(b)
		w.PutString(s)
		for _, v := range fs {
			w.PutFloat64(v)
		}
		r := NewReader(w.Bytes())
		if r.Int32() != a {
			return false
		}
		gb := r.Int32s()
		if len(gb) != len(b) {
			return false
		}
		for i := range b {
			if gb[i] != b[i] {
				return false
			}
		}
		if r.String() != s {
			return false
		}
		for _, v := range fs {
			if math.Float64bits(r.Float64()) != math.Float64bits(v) {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
