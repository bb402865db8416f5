package core

import (
	"fmt"
	"unsafe"

	"metachaos/internal/codec"
)

// Zero-copy views of element storage.  Move lanes encode scalars
// little-endian on the wire; on a little-endian host (codec.HostLE) the
// native bytes of a stride-1 run already ARE the wire encoding, so the
// executor hands the transport a codec.View of the source storage
// instead of packing a copy.  Big-endian hosts stage every run instead
// (codec.Append's portable branch does the byte swap); correctness
// never depends on the view path being taken.

// storageBytes returns m's whole backing storage as bytes, no copy.
func storageBytes(m *Mem) []byte {
	switch m.et.Kind {
	case KindFloat64:
		return codec.View(m.f64)
	case KindFloat32:
		return codec.View(m.f32)
	case KindInt64:
		return codec.View(m.i64)
	case KindInt32:
		return codec.View(m.i32)
	case KindByte:
		return m.by
	}
	panic(fmt.Sprintf("core: viewing unknown element kind %d", m.et.Kind))
}

// memOverlaps reports whether two storages share any bytes.  A move
// whose pack source overlaps its unpack destination must not hand out
// views: in-place unpacking would mutate bytes a payload still
// references.
func memOverlaps(a, b Mem) bool {
	va, vb := storageBytes(&a), storageBytes(&b)
	if len(va) == 0 || len(vb) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(&va[0])), uintptr(unsafe.Pointer(&vb[0]))
	return pa < pb+uintptr(len(vb)) && pb < pa+uintptr(len(va))
}
