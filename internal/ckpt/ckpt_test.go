package ckpt

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"metachaos/internal/core"
	"metachaos/internal/mpsim"
)

// memObj is the minimal DistObject: bare local storage.
type memObj struct{ m core.Mem }

func (o memObj) Elem() core.ElemType { return o.m.Elem() }
func (o memObj) LocalMem() core.Mem  { return o.m }

// withProc runs body on a single simulated process.
func withProc(body func(p *mpsim.Proc)) {
	mpsim.RunSPMD(mpsim.SP2(), 1, body)
}

// fillDistinct gives every scalar unit a distinct value, including an
// int64 beyond 2^53 that a float64 round trip would corrupt.
func fillDistinct(m core.Mem) {
	if m.Elem().Kind == core.KindInt64 {
		wire := make([]byte, 0, 8*m.Units())
		for u := 0; u < m.Units(); u++ {
			wire = binary.LittleEndian.AppendUint64(wire, uint64(1<<53+1+u))
		}
		m.SetFromWire(wire)
		return
	}
	for u := 0; u < m.Units(); u++ {
		m.SetF(u, float64(u+1))
	}
}

func TestSaveRestoreAllKinds(t *testing.T) {
	for _, et := range []core.ElemType{core.Float64, core.Float32, core.Int64, core.Int32, core.Byte} {
		t.Run(et.String(), func(t *testing.T) {
			var failure string
			withProc(func(p *mpsim.Proc) {
				m := core.MakeMem(et, 16)
				fillDistinct(m)
				want := m.AppendTo(nil)
				st := NewStore()
				st.Save(p, 1, Named{Name: "x", Obj: memObj{m}})
				// Scribble over the live storage, then rewind.
				for u := 0; u < m.Units(); u++ {
					m.SetF(u, 0)
				}
				if err := st.Restore(p, 1, Named{Name: "x", Obj: memObj{m}}); err != nil {
					failure = err.Error()
					return
				}
				// The wire encoding is exact for every kind, int64 values
				// beyond 2^53 included.
				if !bytes.Equal(m.AppendTo(nil), want) {
					failure = "restored value differs"
				}
			})
			if failure != "" {
				t.Fatal(failure)
			}
		})
	}
}

func TestRestoreDetectsCorruption(t *testing.T) {
	var err error
	withProc(func(p *mpsim.Proc) {
		m := core.MakeMem(core.Float64, 8)
		fillDistinct(m)
		st := NewStore()
		st.Save(p, 1, Named{Name: "x", Obj: memObj{m}})
		for k, snap := range st.snaps {
			snap.wire[5] ^= 0x40
			st.snaps[k] = snap
		}
		err = st.Restore(p, 1, Named{Name: "x", Obj: memObj{m}})
	})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("restore of corrupted snapshot: err = %v, want checksum failure", err)
	}
}

func TestRestoreErrors(t *testing.T) {
	var missing, shape error
	withProc(func(p *mpsim.Proc) {
		m := core.MakeMem(core.Float64, 8)
		st := NewStore()
		st.Save(p, 1, Named{Name: "x", Obj: memObj{m}})
		missing = st.Restore(p, 2, Named{Name: "x", Obj: memObj{m}})
		other := core.MakeMem(core.Float64, 4)
		shape = st.Restore(p, 1, Named{Name: "x", Obj: memObj{other}})
	})
	if missing == nil {
		t.Error("restore of unsaved version succeeded")
	}
	if shape == nil {
		t.Error("restore onto mismatched shape succeeded")
	}
}

func TestVersions(t *testing.T) {
	withProc(func(p *mpsim.Proc) {
		m := core.MakeMem(core.Int32, 4)
		st := NewStore()
		obj := Named{Name: "x", Obj: memObj{m}}
		st.Save(p, 3, obj)
		st.Save(p, 7, obj)
		if st.Restore(p, 3, obj) != nil || st.Restore(p, 4, obj) == nil || st.Restore(p, 7, obj) != nil {
			panic("versions wrong")
		}
	})
}

func TestDescriptorOnlyObjectSkipped(t *testing.T) {
	var err error
	withProc(func(p *mpsim.Proc) {
		remote := memObj{core.NilMem(core.Float64)}
		st := NewStore()
		st.Save(p, 1, Named{Name: "x", Obj: remote})
		err = st.Restore(p, 1, Named{Name: "x", Obj: remote})
	})
	if err != nil {
		t.Fatalf("descriptor-only round trip: %v", err)
	}
}

// TestSaveCoordinated: consistency across processes is the caller's —
// here a barrier on each side of the save — and every member then holds
// its own snapshot of the same version.
func TestSaveCoordinated(t *testing.T) {
	saved := make([]bool, 3)
	mpsim.RunSPMD(mpsim.SP2(), 3, func(p *mpsim.Proc) {
		m := core.MakeMem(core.Float64, 4)
		fillDistinct(m)
		obj := Named{Name: "x", Obj: memObj{m}}
		st := NewStore()
		p.Comm().Barrier()
		st.Save(p, 1, obj)
		p.Comm().Barrier()
		saved[p.Rank()] = st.Restore(p, 1, obj) == nil
	})
	for r, ok := range saved {
		if !ok {
			t.Errorf("rank %d missing coordinated checkpoint", r)
		}
	}
}
