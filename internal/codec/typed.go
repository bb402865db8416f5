// Typed bulk kernels for raw element payloads: the float32/int64/int32
// counterparts of AppendFloat64s/Float64sInto, plus fused decode-and-add
// kernels for accumulating moves.  All layouts are bare little-endian
// with no length prefix, like the float64 kernels in codec.go.

package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ensure grows dst to hold n more bytes with the same doubling policy
// as AppendFloat64s and returns the extended buffer plus the write
// offset.
func ensure(dst []byte, n int) ([]byte, int) {
	off := len(dst)
	need := off + n
	if cap(dst) < need {
		grown := make([]byte, off, max(need, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	return dst[:need], off
}

// AppendFloat32s appends the bare encoding of vs to dst.
func AppendFloat32s(dst []byte, vs []float32) []byte {
	dst, off := ensure(dst, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[off+i*4:], math.Float32bits(v))
	}
	return dst
}

// AppendInt64s appends the bare encoding of vs to dst.
func AppendInt64s(dst []byte, vs []int64) []byte {
	dst, off := ensure(dst, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[off+i*8:], uint64(v))
	}
	return dst
}

// AppendInt32s appends the bare encoding of vs to dst.
func AppendInt32s(dst []byte, vs []int32) []byte {
	dst, off := ensure(dst, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[off+i*4:], uint32(v))
	}
	return dst
}

func checkPayload(kind string, blen, size, n int) int {
	if blen%size != 0 {
		panic(fmt.Sprintf("codec: %s payload of %d bytes", kind, blen))
	}
	vals := blen / size
	if n < vals {
		panic(fmt.Sprintf("codec: decoding %d %ss into a buffer of %d", vals, kind, n))
	}
	return vals
}

// Float32sInto decodes a bare float32 payload into dst and returns the
// number of values decoded.
func Float32sInto(dst []float32, b []byte) int {
	n := checkPayload("float32", len(b), 4, len(dst))
	for i := 0; i < n; i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return n
}

// Int64sInto decodes a bare int64 payload into dst and returns the
// number of values decoded.
func Int64sInto(dst []int64, b []byte) int {
	n := checkPayload("int64", len(b), 8, len(dst))
	for i := 0; i < n; i++ {
		dst[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return n
}

// Int32sInto decodes a bare int32 payload into dst and returns the
// number of values decoded.
func Int32sInto(dst []int32, b []byte) int {
	n := checkPayload("int32", len(b), 4, len(dst))
	for i := 0; i < n; i++ {
		dst[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return n
}

// AddFloat64s decodes a bare float64 payload and adds each value into
// dst, the fused accumulate kernel (no staging buffer).
func AddFloat64s(dst []float64, b []byte) int {
	n := checkPayload("float64", len(b), 8, len(dst))
	for i := 0; i < n; i++ {
		dst[i] += math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return n
}

// AddFloat32s decodes a bare float32 payload and adds into dst.
func AddFloat32s(dst []float32, b []byte) int {
	n := checkPayload("float32", len(b), 4, len(dst))
	for i := 0; i < n; i++ {
		dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return n
}

// AddInt64s decodes a bare int64 payload and adds into dst.
func AddInt64s(dst []int64, b []byte) int {
	n := checkPayload("int64", len(b), 8, len(dst))
	for i := 0; i < n; i++ {
		dst[i] += int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return n
}

// AddInt32s decodes a bare int32 payload and adds into dst.
func AddInt32s(dst []int32, b []byte) int {
	n := checkPayload("int32", len(b), 4, len(dst))
	for i := 0; i < n; i++ {
		dst[i] += int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return n
}

// AddBytes adds a bare byte payload into dst (mod-256 arithmetic).
func AddBytes(dst []byte, b []byte) int {
	n := checkPayload("byte", len(b), 1, len(dst))
	for i := 0; i < n; i++ {
		dst[i] += b[i]
	}
	return n
}

// BytesToFloat32s decodes a bare float32 payload.
func BytesToFloat32s(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	Float32sInto(out, b)
	return out
}

// BytesToInt64s decodes a bare int64 payload.
func BytesToInt64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	Int64sInto(out, b)
	return out
}

// PutFloat32 appends one float32.
func (w *Writer) PutFloat32(v float32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
	w.buf = append(w.buf, b[:]...)
}

// PutFloat32s appends a length-prefixed float32 slice.
func (w *Writer) PutFloat32s(vs []float32) {
	w.PutInt32(int32(len(vs)))
	for _, v := range vs {
		w.PutFloat32(v)
	}
}

// PutInt64s appends a length-prefixed int64 slice.
func (w *Writer) PutInt64s(vs []int64) {
	w.PutInt32(int32(len(vs)))
	for _, v := range vs {
		w.PutInt64(v)
	}
}

// Float32 decodes one float32.
func (r *Reader) Float32() float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(r.need(4)))
}

// Float32s decodes a length-prefixed float32 slice.
func (r *Reader) Float32s() []float32 {
	n := int(r.Int32())
	out := make([]float32, n)
	for i := range out {
		out[i] = r.Float32()
	}
	return out
}

// Int64s decodes a length-prefixed int64 slice.
func (r *Reader) Int64s() []int64 {
	n := int(r.Int32())
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int64()
	}
	return out
}
