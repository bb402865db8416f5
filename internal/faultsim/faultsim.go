// Package faultsim provides deterministic, seed-driven fault
// injection for mpsim's virtual-time network: per-link drop,
// duplicate, reorder and corruption probabilities, delay jitter, and
// transient link partitions with virtual-time windows.
//
// Determinism is the design center.  Every decision is a pure hash of
// (seed, link, per-link attempt counter), so a run's fault pattern
// depends only on the seed and the sequence of transmissions each
// link carries — not on map iteration order, wall-clock time, or any
// global RNG state.  The same seed therefore reproduces the same
// faults, which is what lets the chaos harness assert bit-identical
// results and identical virtual-time makespans across runs.
package faultsim

import (
	"fmt"

	"metachaos/internal/mpsim"
)

// Rates are per-transmission fault probabilities plus the jitter bound
// used for reordering delays.
type Rates struct {
	// Drop is the probability one transmission copy is lost.
	Drop float64
	// Dup is the probability an extra copy is delivered.
	Dup float64
	// Corrupt is the probability one payload bit flips in flight.
	Corrupt float64
	// Reorder is the probability a copy is delayed by extra jitter,
	// letting later packets overtake it.
	Reorder float64
	// Jitter is the maximum extra delay (virtual seconds) applied to a
	// reordered copy.
	Jitter float64
}

// link identifies a directed (sender, receiver) world-rank pair.
type link struct {
	from, to int
}

// Partition is a transient network partition: during the virtual-time
// window [Start, End) no transmission crosses the cut between Ranks
// and the rest of the world (both directions, acks included).
type Partition struct {
	Start, End float64
	Ranks      []int
}

// cuts reports whether the (a -> b) transmission crosses the
// partition's cut — exactly one endpoint inside Ranks.
func (pt *Partition) cuts(a, b int) bool {
	ina, inb := false, false
	for _, r := range pt.Ranks {
		if r == a {
			ina = true
		}
		if r == b {
			inb = true
		}
	}
	return ina != inb
}

// Crash is one scheduled fail-stop fault: world rank Rank (reduced
// modulo the world size at run time) dies at virtual time At; if
// RestartAt > At the rank restarts there.
type Crash struct {
	Rank      int
	At        float64
	RestartAt float64
}

// Profile is a deterministic fault injector implementing
// mpsim.FaultInjector (message faults) and, through CrashPlan,
// mpsim.CrashPlan (fail-stop crash faults).  The zero value injects
// nothing; populate Base, Partitions and Crashes (or start from a
// preset) and pass it as mpsim.Config.Fault and/or Config.Crash.
type Profile struct {
	// Seed selects the pseudo-random fault pattern.
	Seed uint64
	// Base applies to every inter-node link.
	Base Rates
	// Partitions are transient cuts; a transmission crossing an active
	// cut is dropped regardless of Rates.
	Partitions []Partition
	// Crashes are scheduled fail-stop faults.  They take effect only
	// when the profile is passed as mpsim.Config.Crash — wiring the
	// same profile as Config.Fault alone never kills a rank.
	Crashes []Crash

	// calls counts decisions per link, the deterministic per-link
	// stream position (retransmissions advance it too, so a retry's
	// fate is independent of the original's).
	calls map[link]uint64
}

// Decide implements mpsim.FaultInjector.
func (f *Profile) Decide(from, to, attempt, bytes int, now float64) mpsim.FaultDecision {
	d := mpsim.FaultDecision{CorruptBit: -1}
	for i := range f.Partitions {
		pt := &f.Partitions[i]
		if now >= pt.Start && now < pt.End && pt.cuts(from, to) {
			d.Drop = true
			return d
		}
	}
	l := link{from, to}
	r := f.Base
	if f.calls == nil {
		f.calls = make(map[link]uint64)
	}
	k := f.calls[l]
	f.calls[l] = k + 1
	if roll(f.Seed, l, k, 1) < r.Drop {
		d.Drop = true
		return d
	}
	if attempt >= 0 { // acks are never duplicated or corrupted
		d.Duplicate = roll(f.Seed, l, k, 2) < r.Dup
		if bytes > 0 && roll(f.Seed, l, k, 3) < r.Corrupt {
			d.CorruptBit = int(mix(f.Seed^0xc0de, uint64(l.from)<<32|uint64(uint32(l.to)), k) % uint64(bytes*8))
		}
	}
	if roll(f.Seed, l, k, 4) < r.Reorder {
		d.ExtraDelay = r.Jitter * roll(f.Seed, l, k, 5)
	}
	return d
}

// WithCrash returns the profile with a permanent crash added: rank
// dies at virtual time at.
func (f *Profile) WithCrash(rank int, at float64) *Profile {
	f.Crashes = append(f.Crashes, Crash{Rank: rank, At: at})
	return f
}

// HasCrashes reports whether the profile schedules any crash faults,
// so harnesses know to wire it as mpsim.Config.Crash.
func (f *Profile) HasCrashes() bool { return f != nil && len(f.Crashes) > 0 }

// plan materializes the crash schedule for a world: each scheduled
// Crash's rank is reduced modulo the world size, making seeded plans
// valid for any process count.
func (f *Profile) plan(worldSize int) []mpsim.CrashEvent {
	evs := make([]mpsim.CrashEvent, 0, len(f.Crashes))
	for _, c := range f.Crashes {
		r := c.Rank % worldSize
		if r < 0 {
			r += worldSize
		}
		evs = append(evs, mpsim.CrashEvent{Rank: r, At: c.At, RestartAt: c.RestartAt})
	}
	return evs
}

// CrashPlan returns the profile's crash schedule as an mpsim.CrashPlan,
// or nil when the profile (or its crash list) is empty — nil is what
// mpsim.Config.Crash expects for "no crash faults", so the result can
// be assigned unconditionally.
func (f *Profile) CrashPlan() mpsim.CrashPlan {
	if !f.HasCrashes() {
		return nil
	}
	return crashPlan{f}
}

// crashPlan adapts a Profile to mpsim.CrashPlan.  A separate type is
// needed because Profile's Crashes *field* occupies the method name.
type crashPlan struct{ f *Profile }

func (cp crashPlan) Crashes(worldSize int) []mpsim.CrashEvent { return cp.f.plan(worldSize) }

// Mild models an occasionally lossy shared link: about 1% drops with
// light duplication, corruption and reordering.
func Mild(seed uint64) *Profile {
	return &Profile{Seed: seed, Base: Rates{
		Drop: 0.01, Dup: 0.005, Corrupt: 0.002, Reorder: 0.05, Jitter: 2e-3,
	}}
}

// Lossy models a badly congested link: 5% drops, heavy reordering.
func Lossy(seed uint64) *Profile {
	return &Profile{Seed: seed, Base: Rates{
		Drop: 0.05, Dup: 0.02, Corrupt: 0.01, Reorder: 0.2, Jitter: 5e-3,
	}}
}

// Random derives a profile's rates from the seed itself, for soak
// tests that want a different-but-reproducible regime per seed.
func Random(seed uint64) *Profile {
	u := func(salt uint64) float64 { return unit(mix(seed, salt, 0x9e37)) }
	return &Profile{Seed: seed, Base: Rates{
		Drop:    0.002 + 0.048*u(1),
		Dup:     0.03 * u(2),
		Corrupt: 0.015 * u(3),
		Reorder: 0.25 * u(4),
		Jitter:  1e-3 + 5e-3*u(5),
	}}
}

// Crashy is Mild's message faults plus one seed-derived permanent
// crash: a rank (chosen modulo the world size at run time) dies at a
// seed-derived virtual time early in the run.
func Crashy(seed uint64) *Profile {
	f := Mild(seed)
	u := func(salt uint64) float64 { return unit(mix(seed, salt, 0xdead)) }
	f.Crashes = append(f.Crashes, Crash{
		Rank: int(mix(seed, 0xdead, 1) % 1024),
		At:   0.002 + 0.006*u(2),
	})
	return f
}

// Flaky is Crashy with recovery: the crashed rank restarts a
// seed-derived interval after dying.
func Flaky(seed uint64) *Profile {
	f := Crashy(seed)
	u := func(salt uint64) float64 { return unit(mix(seed, salt, 0xdead)) }
	c := &f.Crashes[len(f.Crashes)-1]
	c.RestartAt = c.At + 0.004 + 0.008*u(3)
	return f
}

// ByName maps a profile name ("none", "mild", "lossy", "random",
// "crashy", "flaky") to its constructor, the command-line and CI entry
// point.
func ByName(name string, seed uint64) (*Profile, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "mild":
		return Mild(seed), nil
	case "lossy":
		return Lossy(seed), nil
	case "random":
		return Random(seed), nil
	case "crashy":
		return Crashy(seed), nil
	case "flaky":
		return Flaky(seed), nil
	}
	return nil, fmt.Errorf("faultsim: unknown profile %q (want none, mild, lossy, random, crashy or flaky)", name)
}

// mix is a splitmix64-style avalanche of (seed, stream, position),
// the source of every probability roll.
func mix(seed, stream, k uint64) uint64 {
	z := seed ^ stream*0x9e3779b97f4a7c15 ^ k*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// roll is the deterministic per-(link, position, salt) probability.
func roll(seed uint64, l link, k, salt uint64) float64 {
	return unit(mix(seed^salt*0x2545f4914f6cdd1d, uint64(l.from)<<32|uint64(uint32(l.to)), k))
}

// Unit is the package's deterministic probability roll exposed for
// fault injectors outside the simulated network — the coupling
// service's wire-chaos net.Conn wrapper seeds its mid-frame
// disconnect/truncate/stall decisions from it.  The result depends
// only on (seed, stream, k): the same discipline as Decide, so a
// pinned seed reproduces the same fault pattern on any host.
func Unit(seed, stream, k uint64) float64 {
	return unit(mix(seed, stream, k))
}
