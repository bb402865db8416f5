package core

import (
	"fmt"

	"metachaos/internal/codec"
)

// Mem is one process's local element storage for a distributed object:
// a slice of the element type's scalar kind, tagged with the type.  It
// is a small value — copies alias the same underlying array — and the
// zero value (or NilMem) is the storage of a descriptor-only remote
// view, which owns no elements.
//
// The executor works on the typed slice of the active kind directly;
// generic code (reference executors, generic fills) uses the GetF/SetF
// unit accessors, which convert through float64.  Those do not inline,
// so they take a pointer: by value the descriptor — an ElemType and
// five slice headers, 136 bytes — would be copied on every call.
type Mem struct {
	et  ElemType
	f64 []float64
	f32 []float32
	i64 []int64
	i32 []int32
	by  []byte
}

// MakeMem allocates zeroed storage for elems elements of type et.
func MakeMem(et ElemType, elems int) Mem {
	n := elems * et.Words
	m := Mem{et: et}
	switch et.Kind {
	case KindFloat64:
		m.f64 = make([]float64, n)
	case KindFloat32:
		m.f32 = make([]float32, n)
	case KindInt64:
		m.i64 = make([]int64, n)
	case KindInt32:
		m.i32 = make([]int32, n)
	case KindByte:
		m.by = make([]byte, n)
	default:
		panic(fmt.Sprintf("core: MakeMem of unknown element kind %d", et.Kind))
	}
	return m
}

// NilMem returns the storage of a descriptor-only remote view: typed,
// but owning no elements (IsNil reports true).
func NilMem(et ElemType) Mem { return Mem{et: et} }

// Elem returns the element type the storage holds.
func (m Mem) Elem() ElemType { return m.et }

// IsNil reports whether the Mem owns no storage at all — the
// descriptor-only remote-view case.  An allocated zero-length slice is
// not nil, matching the nil test on a bare []float64.
func (m Mem) IsNil() bool {
	switch m.et.Kind {
	case KindFloat64:
		return m.f64 == nil
	case KindFloat32:
		return m.f32 == nil
	case KindInt64:
		return m.i64 == nil
	case KindInt32:
		return m.i32 == nil
	case KindByte:
		return m.by == nil
	}
	return true
}

// Units returns the storage length in scalars of the element kind
// (ElemType.Words units per element).  Only the active kind's slice is
// ever set, so the sum is that slice's length, without a branch.
func (m Mem) Units() int {
	return len(m.f64) + len(m.f32) + len(m.i64) + len(m.i32) + len(m.by)
}

// Elems returns the number of locally stored elements.
func (m Mem) Elems() int { return m.Units() / max(m.et.Words, 1) }

// Float64s returns the underlying slice of a KindFloat64 Mem, nil for
// any other kind, so the float64-native libraries keep working on
// their natural slice type.
func (m Mem) Float64s() []float64 { return m.f64 }

// GetF reads scalar unit u converted to float64.
func (m *Mem) GetF(u int) float64 {
	switch m.et.Kind {
	case KindFloat64:
		return m.f64[u]
	case KindFloat32:
		return float64(m.f32[u])
	case KindInt64:
		return float64(m.i64[u])
	case KindInt32:
		return float64(m.i32[u])
	case KindByte:
		return float64(m.by[u])
	}
	panic(fmt.Sprintf("core: GetF on unknown element kind %d", m.et.Kind))
}

// SetF stores v into scalar unit u, converting from float64 (integer
// kinds truncate).
func (m *Mem) SetF(u int, v float64) {
	switch m.et.Kind {
	case KindFloat64:
		m.f64[u] = v
	case KindFloat32:
		m.f32[u] = float32(v)
	case KindInt64:
		m.i64[u] = int64(v)
	case KindInt32:
		m.i32[u] = int32(v)
	case KindByte:
		m.by[u] = byte(v)
	default:
		panic(fmt.Sprintf("core: SetF on unknown element kind %d", m.et.Kind))
	}
}

// AppendTo appends the whole storage to buf in wire encoding
// (little-endian scalars, the same encoding move lanes use), for
// checkpoint serialization.
func (m Mem) AppendTo(buf []byte) []byte {
	switch m.et.Kind {
	case KindFloat64:
		return codec.Append(buf, m.f64)
	case KindFloat32:
		return codec.Append(buf, m.f32)
	case KindInt64:
		return codec.Append(buf, m.i64)
	case KindInt32:
		return codec.Append(buf, m.i32)
	case KindByte:
		return codec.Append(buf, m.by)
	}
	panic(fmt.Sprintf("core: AppendTo on unknown element kind %d", m.et.Kind))
}

// SetFromWire overwrites the whole storage by decoding b, the inverse
// of AppendTo; b must be exactly the storage's wire size.
func (m Mem) SetFromWire(b []byte) {
	want := m.Units() * m.et.Kind.Size()
	if len(b) != want {
		panic(fmt.Sprintf("core: SetFromWire payload is %d bytes, storage wants %d", len(b), want))
	}
	switch m.et.Kind {
	case KindFloat64:
		codec.Into(m.f64, b)
	case KindFloat32:
		codec.Into(m.f32, b)
	case KindInt64:
		codec.Into(m.i64, b)
	case KindInt32:
		codec.Into(m.i32, b)
	case KindByte:
		codec.Into(m.by, b)
	default:
		panic(fmt.Sprintf("core: SetFromWire on unknown element kind %d", m.et.Kind))
	}
}
