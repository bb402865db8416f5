package core

import (
	"fmt"
	"unsafe"
)

// Zero-copy views of element storage.  Move lanes encode scalars
// little-endian on the wire; on a little-endian host the native bytes
// of a stride-1 run already ARE the wire encoding, so the executor can
// hand the transport a view of the source storage instead of packing a
// copy.  Big-endian hosts fall back to the staging path (packRun does
// the byte swap); correctness never depends on the view path being
// taken.

// hostLE reports whether the host stores scalars little-endian, i.e.
// whether native storage bytes equal the wire encoding.
var hostLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// viewUnits returns a byte view of n scalar units starting at unit o of
// m — the storage's own backing bytes, no copy.  Valid as wire encoding
// only when hostLE is true (KindByte is endian-free but gated the same
// way for simplicity).  The caller must not let the view outlive the
// storage, and must not mutate the storage while readers hold the view.
func viewUnits(m *Mem, o, n int) []byte {
	if n == 0 {
		return nil
	}
	switch m.et.Kind {
	case KindFloat64:
		return unsafe.Slice((*byte)(unsafe.Pointer(&m.f64[o])), n*8)
	case KindFloat32:
		return unsafe.Slice((*byte)(unsafe.Pointer(&m.f32[o])), n*4)
	case KindInt64:
		return unsafe.Slice((*byte)(unsafe.Pointer(&m.i64[o])), n*8)
	case KindInt32:
		return unsafe.Slice((*byte)(unsafe.Pointer(&m.i32[o])), n*4)
	case KindByte:
		return m.by[o : o+n]
	}
	panic(fmt.Sprintf("core: viewing unknown element kind %d", m.et.Kind))
}

// memOverlaps reports whether two storages share any bytes.  A move
// whose pack source overlaps its unpack destination must not hand out
// views: in-place unpacking would mutate bytes a payload still
// references.
func memOverlaps(a, b Mem) bool {
	va, vb := viewUnits(&a, 0, a.Units()), viewUnits(&b, 0, b.Units())
	if len(va) == 0 || len(vb) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(&va[0])), uintptr(unsafe.Pointer(&vb[0]))
	return pa < pb+uintptr(len(vb)) && pb < pa+uintptr(len(va))
}
