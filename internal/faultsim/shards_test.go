package faultsim_test

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"metachaos/internal/faultsim"
	"metachaos/internal/mpsim"
)

// Every ByName profile must give the same run at one scheduler shard
// and at four: a decision is a pure hash of the link and its per-link
// ordinal, so how shards interleave their sends cannot move a fault.
// The check lives here, not in mpsim, because mpsim cannot import
// faultsim.

// slotRing is a ring that survives every profile: in each fixed
// virtual-time slot a member sends to its successor among the ranks
// not detected dead, and waits a bounded time for its predecessor.
// Membership is read at the slot boundary, so members agree on the
// ring without a message; a rank that restarts late starts at the next
// boundary.
func slotRing(p *mpsim.Proc) {
	const slots, width = 16, 2e-3
	buf := make([]byte, 384)
	for s := int(p.Clock()/width) + 1; s <= slots; s++ {
		p.SleepUntil(float64(s) * width)
		ring := p.World().Exclude(p.DeadRanks())
		me, n := ring.Rank(), ring.Size()
		if me < 0 || n < 2 {
			continue
		}
		buf[0] = byte(s)
		// A slot lost to a drop, a dead peer or a membership change is
		// part of the workload; its fate shows in the fingerprint.
		_ = p.WithTimeout(width/2, func() {
			ring.Send((me+1)%n, s, buf)
			ring.Recv((me+n-1)%n, s)
		})
	}
}

// shardRun is what a run reports that the scheduler's event order
// decides.
type shardRun struct {
	makespan                        float64
	msgs, bytes, drops, retransmits int64
	crashes                         string
	timeline                        uint64
}

func runProfile(t *testing.T, name string, seed uint64, shards int) shardRun {
	t.Helper()
	// A fresh profile per run: Decide advances per-link ordinals.
	prof, err := faultsim.ByName(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("MPSIM_SHARDS", strconv.Itoa(shards))
	st := mpsim.Run(mpsim.Config{
		Machine:  mpsim.SP2(),
		Fault:    prof,
		Reliable: true,
		Crash:    prof.CrashPlan(),
		Trace:    true,
		Programs: []mpsim.ProgramSpec{{Name: "ring", Procs: 8, ProcsPerNode: 1, Body: slotRing}},
	})
	tl := fnv.New64a()
	tl.Write([]byte(st.Trace.Timeline()))
	return shardRun{
		makespan:    st.MakespanSeconds,
		msgs:        st.TotalMsgs(),
		bytes:       st.TotalBytes(),
		drops:       st.TotalDrops(),
		retransmits: st.TotalRetransmits(),
		crashes:     fmt.Sprint(st.Crashes),
		timeline:    tl.Sum64(),
	}
}

func TestProfilesShardCountInvariant(t *testing.T) {
	for _, name := range []string{"mild", "lossy", "random", "crashy", "flaky"} {
		for _, seed := range []uint64{1, 7, 42} {
			one, four := runProfile(t, name, seed, 1), runProfile(t, name, seed, 4)
			if one != four {
				t.Errorf("%s seed %d: one shard %+v, four shards %+v", name, seed, one, four)
			}
			if one.drops == 0 {
				t.Errorf("%s seed %d: no drops; the profile injected nothing", name, seed)
			}
			if (name == "crashy" || name == "flaky") && one.crashes == "[]" {
				t.Errorf("%s seed %d: the profile's crash never fired", name, seed)
			}
		}
	}
}
