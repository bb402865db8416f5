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

// Reset empties the writer but keeps its buffer, so a writer reused
// across messages stops allocating once it has grown to the largest.
// Bytes returned before the Reset share that buffer and are
// overwritten by what is written next.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

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
