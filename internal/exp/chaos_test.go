package exp

import (
	"testing"

	"metachaos/internal/faultsim"
)

// mildCut is the mild profile plus a partition that cuts rank 0 off
// early in the run.
func mildCut() *faultsim.Profile {
	f := faultsim.Mild(42)
	f.Partitions = []faultsim.Partition{{Start: 0.01, End: 0.05, Ranks: []int{0}}}
	return f
}

// TestChaosFigure10Workload runs the Section 5.4 client/server
// experiment on a faulty Alpha-farm network with reliable transport
// and checks that the client's result vector is bit-identical to the
// fault-free run, that faults actually fired, and that the same seed
// reproduces the same virtual-time outcome.
func TestChaosFigure10Workload(t *testing.T) {
	base := CSConfig{ClientProcs: 2, ServerProcs: 4, Vectors: 4, Fingerprint: true}
	clean, _ := runClientServer(base)
	if clean.ResultHash == 0 {
		t.Fatal("fault-free run produced a zero result hash")
	}

	faulty := base
	faulty.Fault = mildCut()
	faulty.Reliable = true
	got, st := runClientServer(faulty)
	if got.ResultHash != clean.ResultHash {
		t.Errorf("result hash %#x under faults, want fault-free %#x (bit-identical)",
			got.ResultHash, clean.ResultHash)
	}
	if st.TotalDrops() == 0 {
		t.Error("no transmissions dropped; the mild profile plus partition must inject faults")
	}
	if st.TotalRetransmits() == 0 {
		t.Error("no retransmissions; recovery never exercised")
	}

	// Fresh injector, same seed: identical virtual-time outcome.
	replay := base
	replay.Fault = mildCut()
	replay.Reliable = true
	got2, st2 := runClientServer(replay)
	if got2.ResultHash != got.ResultHash ||
		st2.MakespanSeconds != st.MakespanSeconds ||
		st2.TotalRetransmits() != st.TotalRetransmits() {
		t.Errorf("nondeterministic replay: hash %#x vs %#x, makespan %g vs %g, rexmit %d vs %d",
			got2.ResultHash, got.ResultHash,
			st2.MakespanSeconds, st.MakespanSeconds,
			st2.TotalRetransmits(), st.TotalRetransmits())
	}
}
