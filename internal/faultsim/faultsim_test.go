package faultsim

import (
	"testing"

	"metachaos/internal/mpsim"
)

// Two profiles with the same seed must produce identical decision
// streams; a different seed must diverge.
func TestDecideDeterminism(t *testing.T) {
	a, b := Lossy(42), Lossy(42)
	c := Lossy(43)
	same, diff := 0, 0
	for k := 0; k < 2000; k++ {
		da := a.Decide(0, 1, 0, 4096, 0.001*float64(k))
		db := b.Decide(0, 1, 0, 4096, 0.001*float64(k))
		dc := c.Decide(0, 1, 0, 4096, 0.001*float64(k))
		if da != db {
			t.Fatalf("same seed diverged at call %d: %+v vs %+v", k, da, db)
		}
		if da == dc {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Fatalf("different seeds produced identical streams over %d calls", same+diff)
	}
}

// The decision stream must be per-link: interleaving calls for another
// link must not perturb a link's own stream.
func TestDecidePerLinkStreams(t *testing.T) {
	solo := Mild(7)
	var want []mpsim.FaultDecision
	for k := 0; k < 500; k++ {
		want = append(want, solo.Decide(2, 3, 0, 1024, 0))
	}
	mixed := Mild(7)
	var got []mpsim.FaultDecision
	for k := 0; k < 500; k++ {
		mixed.Decide(0, 1, 0, 1024, 0) // interleaved traffic on another link
		got = append(got, mixed.Decide(2, 3, 0, 1024, 0))
	}
	for k := range want {
		if want[k] != got[k] {
			t.Fatalf("link (2,3) stream perturbed by link (0,1) traffic at call %d", k)
		}
	}
}

// Rates must be realized at roughly their configured frequency.
func TestRatesRealized(t *testing.T) {
	f := &Profile{Seed: 99, Base: Rates{Drop: 0.1, Dup: 0.05, Corrupt: 0.02, Reorder: 0.3, Jitter: 1e-3}}
	const n = 20000
	var drops, dups, corrupts, delays int
	for k := 0; k < n; k++ {
		d := f.Decide(0, 1, 0, 512, 0)
		if d.Drop {
			drops++
			continue
		}
		if d.Duplicate {
			dups++
		}
		if d.CorruptBit >= 0 {
			corrupts++
			if d.CorruptBit >= 512*8 {
				t.Fatalf("corrupt bit %d out of range for 512-byte payload", d.CorruptBit)
			}
		}
		if d.ExtraDelay > 0 {
			delays++
			if d.ExtraDelay >= 1e-3 {
				t.Fatalf("jitter %g exceeds bound", d.ExtraDelay)
			}
		}
	}
	approx := func(name string, got int, want float64) {
		frac := float64(got) / n
		if frac < want*0.7 || frac > want*1.3 {
			t.Errorf("%s rate %.4f, configured %.4f", name, frac, want)
		}
	}
	approx("drop", drops, 0.1)
	approx("dup", dups, 0.05*0.9) // dup measured among non-dropped copies
	approx("corrupt", corrupts, 0.02*0.9)
	approx("reorder", delays, 0.3*0.9)
}

// Partitions drop everything crossing the cut during the window, in
// both directions, and nothing outside it.
func TestPartitionWindow(t *testing.T) {
	f := &Profile{Seed: 1, Partitions: []Partition{{Start: 1.0, End: 2.0, Ranks: []int{0, 1}}}}
	cases := []struct {
		from, to int
		now      float64
		cut      bool
	}{
		{0, 2, 1.5, true},  // inside -> outside, during window
		{2, 1, 1.5, true},  // outside -> inside, during window
		{0, 1, 1.5, false}, // both inside the partition group
		{2, 3, 1.5, false}, // both outside
		{0, 2, 0.5, false}, // before the window
		{0, 2, 2.0, false}, // at End (half-open)
		{0, 2, 2.5, false}, // after
	}
	for _, c := range cases {
		d := f.Decide(c.from, c.to, 0, 64, c.now)
		if d.Drop != c.cut {
			t.Errorf("Decide(%d->%d at %g): drop=%v, want %v", c.from, c.to, c.now, d.Drop, c.cut)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "", "mild", "lossy", "random"} {
		if _, err := ByName(name, 1); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if p, _ := ByName("none", 1); p != nil {
		t.Error("ByName(none) should return a nil profile")
	}
	if _, err := ByName("bogus", 1); err == nil {
		t.Error("ByName(bogus) should fail")
	}
}
