// Typed kernels for raw element payloads: bare little-endian scalars
// with no length prefix, the layout move lanes and checkpoints use.
// Each kernel is one generic function over the Scalar constraint, so a
// caller resolves the element kind once — by picking the typed slice —
// and the loop it then runs is specialized to that type.  On a
// little-endian host a scalar slice's own bytes already are its wire
// encoding, so the bulk Append and Into are a memmove through View, and
// Scalars views wire bytes as the scalars themselves; the portable
// per-scalar loop is the other branch of the same functions.

package codec

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Scalar is the set of storage types elements are built from.
type Scalar interface {
	~float64 | ~float32 | ~int64 | ~int32 | ~byte
}

// hostLE reports whether the host stores scalars little-endian, i.e.
// whether native storage bytes equal the wire encoding.  A variable so
// the in-package test can run the portable branch on any host.
var hostLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// HostLE reports whether View(vs) is the wire encoding of vs.
func HostLE() bool { return hostLE }

// View returns the backing bytes of vs, no copy.  They are the wire
// encoding only when HostLE is true (bytes are endian-free).  The
// caller must not let the view outlive vs.
func View[T Scalar](vs []T) []byte {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), len(vs)*int(unsafe.Sizeof(vs[0])))
}

// Scalars returns the len(b)/Sizeof(T) whole scalars at the front of
// b's bytes as a []T, no copy: the inverse of View.  They are b's wire
// encoding decoded only when HostLE is true.  b must start T-aligned,
// as pooled segments and views of scalar storage do, and the caller
// must not let the result outlive b.
func Scalars[T Scalar](b []byte) []T {
	var z T
	if len(b) < int(unsafe.Sizeof(z)) {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(z)))
}

// Put stores v's wire encoding in the first Sizeof(v) bytes of b.  The
// value is reinterpreted as the unsigned integer of its size; the
// switch folds away in each instantiation.
func Put[T Scalar](b []byte, v T) {
	switch unsafe.Sizeof(v) {
	case 8:
		binary.LittleEndian.PutUint64(b, *(*uint64)(unsafe.Pointer(&v)))
	case 4:
		binary.LittleEndian.PutUint32(b, *(*uint32)(unsafe.Pointer(&v)))
	default:
		b[0] = *(*byte)(unsafe.Pointer(&v))
	}
}

// Get decodes the scalar whose wire encoding starts b.
func Get[T Scalar](b []byte) (v T) {
	switch unsafe.Sizeof(v) {
	case 8:
		*(*uint64)(unsafe.Pointer(&v)) = binary.LittleEndian.Uint64(b)
	case 4:
		*(*uint32)(unsafe.Pointer(&v)) = binary.LittleEndian.Uint32(b)
	default:
		*(*byte)(unsafe.Pointer(&v)) = b[0]
	}
	return v
}

// Append appends the bare encoding of vs to dst and returns the
// extended buffer.  Growth doubles, so callers that keep the returned
// buffer across calls encode without allocating once it has reached its
// working size.
func Append[T Scalar](dst []byte, vs []T) []byte {
	var z T
	size := int(unsafe.Sizeof(z))
	off := len(dst)
	need := off + size*len(vs)
	if cap(dst) < need {
		grown := make([]byte, off, max(need, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	if hostLE {
		copy(dst[off:], View(vs))
		return dst
	}
	for i, v := range vs {
		Put(dst[off+i*size:], v)
	}
	return dst
}

// checkPayload returns how many size-byte scalars b holds, panicking
// unless that is a whole number dst can take.
func checkPayload[T Scalar](dst []T, b []byte) (n, size int) {
	var z T
	size = int(unsafe.Sizeof(z))
	if len(b)%size != 0 {
		panic(fmt.Sprintf("codec: %T payload of %d bytes", z, len(b)))
	}
	n = len(b) / size
	if len(dst) < n {
		panic(fmt.Sprintf("codec: decoding %d %Ts into a buffer of %d", n, z, len(dst)))
	}
	return n, size
}

// Into decodes a bare payload into dst, which must hold at least
// len(b)/Sizeof(T) values, and returns the number of values decoded.
// b may alias dst's own bytes at or ahead of the write position (an
// in-place decode of a storage view): the result is then what memmove
// gives.
func Into[T Scalar](dst []T, b []byte) int {
	n, size := checkPayload(dst, b)
	if hostLE {
		copy(View(dst[:n]), b)
		return n
	}
	for i := 0; i < n; i++ {
		dst[i] = Get[T](b[i*size:])
	}
	return n
}

// Float64sToBytes encodes a bare float64 slice into a fresh buffer.
func Float64sToBytes(vs []float64) []byte {
	return Append(make([]byte, 0, 8*len(vs)), vs)
}

// BytesToFloat64s decodes a bare float64 payload into a fresh slice.
func BytesToFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	Into(out, b)
	return out
}
