// Package codec provides the little-endian wire encoding used by every
// layer of the simulator for message payloads: primitive slices, and a
// tiny append-style writer/reader pair for composite messages such as
// communication schedules and data descriptors.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer accumulates a wire message.  The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded message.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// PutInt32 appends one int32.
func (w *Writer) PutInt32(v int32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(v))
}

// SetInt32 overwrites the int32 written at byte offset at (a value of
// Len taken before that PutInt32), for counts known only once the
// items they head are written.
func (w *Writer) SetInt32(at int, v int32) {
	binary.LittleEndian.PutUint32(w.buf[at:at+4], uint32(v))
}

// PutInt64 appends one int64.
func (w *Writer) PutInt64(v int64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
}

// PutFloat64 appends one float64.
func (w *Writer) PutFloat64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// PutInt32s appends a length-prefixed int32 slice.
func (w *Writer) PutInt32s(vs []int32) {
	w.PutInt32(int32(len(vs)))
	for _, v := range vs {
		w.PutInt32(v)
	}
}

// PutInts appends a length-prefixed []int encoded as int32s.
func (w *Writer) PutInts(vs []int) {
	w.PutInt32(int32(len(vs)))
	for _, v := range vs {
		w.PutInt32(int32(v))
	}
}

// PutFloat64s appends a length-prefixed float64 slice.
func (w *Writer) PutFloat64s(vs []float64) {
	w.PutInt32(int32(len(vs)))
	for _, v := range vs {
		w.PutFloat64(v)
	}
}

// PutString appends a length-prefixed string.
func (w *Writer) PutString(s string) {
	w.PutInt32(int32(len(s)))
	w.buf = append(w.buf, s...)
}

// PutBytes appends a length-prefixed byte slice.
func (w *Writer) PutBytes(b []byte) {
	w.PutInt32(int32(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader decodes a message produced by Writer.  Decoding past the end
// of the buffer panics, which in this codebase indicates a protocol bug
// between two simulated processes, not a user error.
type Reader struct {
	buf []byte
	off int
}

// NewReader wraps buf for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) need(n int) []byte {
	if r.off+n > len(r.buf) {
		panic(fmt.Sprintf("codec: reading %d bytes with only %d remaining", n, r.Remaining()))
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Int32 decodes one int32.
func (r *Reader) Int32() int32 {
	return int32(binary.LittleEndian.Uint32(r.need(4)))
}

// Int64 decodes one int64.
func (r *Reader) Int64() int64 {
	return int64(binary.LittleEndian.Uint64(r.need(8)))
}

// Float64 decodes one float64.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.need(8)))
}

// Int32s decodes a length-prefixed int32 slice.
func (r *Reader) Int32s() []int32 {
	n := int(r.Int32())
	out := make([]int32, n)
	for i := range out {
		out[i] = r.Int32()
	}
	return out
}

// Ints decodes a length-prefixed []int written by PutInts.
func (r *Reader) Ints() []int {
	n := int(r.Int32())
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.Int32())
	}
	return out
}

// Float64s decodes a length-prefixed float64 slice.
func (r *Reader) Float64s() []float64 {
	n := int(r.Int32())
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.Int32())
	return string(r.need(n))
}

// Bytes decodes a length-prefixed byte slice, copying it out of the
// message buffer.
func (r *Reader) Bytes() []byte {
	n := int(r.Int32())
	return append([]byte(nil), r.need(n)...)
}

// Float64sToBytes encodes a bare float64 slice (no length prefix), the
// layout used for raw element payloads.
func Float64sToBytes(vs []float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// AppendFloat64s appends the bare encoding of vs to dst and returns the
// extended buffer, the reuse-friendly form of Float64sToBytes: callers
// that keep the returned buffer across calls encode without allocating
// once the buffer has grown to its working size.
func AppendFloat64s(dst []byte, vs []float64) []byte {
	off := len(dst)
	need := off + 8*len(vs)
	if cap(dst) < need {
		grown := make([]byte, off, max(need, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[off+i*8:], math.Float64bits(v))
	}
	return dst
}

// Float64sInto decodes a bare float64 payload into dst, which must hold
// at least len(b)/8 values, and returns the number of values decoded.
// The allocation-free counterpart of BytesToFloat64s.
func Float64sInto(dst []float64, b []byte) int {
	if len(b)%8 != 0 {
		panic(fmt.Sprintf("codec: float64 payload of %d bytes", len(b)))
	}
	n := len(b) / 8
	if len(dst) < n {
		panic(fmt.Sprintf("codec: decoding %d float64s into a buffer of %d", n, len(dst)))
	}
	for i := 0; i < n; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return n
}

// BytesToFloat64s decodes a bare float64 payload.
func BytesToFloat64s(b []byte) []float64 {
	if len(b)%8 != 0 {
		panic(fmt.Sprintf("codec: float64 payload of %d bytes", len(b)))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// Int32sToBytes encodes a bare int32 slice (no length prefix).
func Int32sToBytes(vs []int32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

// BytesToInt32s decodes a bare int32 payload.
func BytesToInt32s(b []byte) []int32 {
	if len(b)%4 != 0 {
		panic(fmt.Sprintf("codec: int32 payload of %d bytes", len(b)))
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}
