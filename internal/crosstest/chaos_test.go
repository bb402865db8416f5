// Chaos harness: the full cross-library sweep re-run on a faulty
// network with reliable transport, asserting the results are
// bit-identical to a fault-free run of the same workload.  Seed and
// fault profile come from CHAOS_SEED / CHAOS_PROFILE so CI can pin a
// regime and soak jobs can rotate it:
//
//	CHAOS_SEED=7 CHAOS_PROFILE=lossy go test -run Chaos ./internal/crosstest/
package crosstest

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"metachaos/internal/core"
	"metachaos/internal/faultsim"
	"metachaos/internal/mpsim"
)

func chaosSeed(t *testing.T) uint64 {
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", s, err)
	}
	return v
}

func chaosProfile() string {
	if p := os.Getenv("CHAOS_PROFILE"); p != "" {
		return p
	}
	return "lossy"
}

// chaosRun executes one cross-library transfer of the given flavour and
// returns the verification snapshot (taken at rank 0) plus run stats.
// A nil injector gives the fault-free reference run.  Both runs use the
// same machine and rng seed, so any payload difference is transport
// corruption leaking through.
func chaosRun(t *testing.T, srcKind, dstKind, op string, method core.Method, seed int64, inj mpsim.FaultInjector) (map[int32]float64, *mpsim.Stats) {
	t.Helper()
	const n, nprocs = 32, 3
	var snap map[int32]float64
	var mismatch string
	cfg := mpsim.Config{
		Machine:  mpsim.SP2(),
		Programs: []mpsim.ProgramSpec{{Name: "spmd", Procs: nprocs, Body: nil}},
	}
	if inj != nil {
		cfg.Fault = inj
		cfg.Reliable = true
	}
	cfg.Programs[0].Body = func(p *mpsim.Proc) {
		rng := rand.New(rand.NewSource(seed))
		ctx := core.NewCtx(p, p.Comm())
		src := buildSide(t, rng, srcKind, ctx, p, n, -1)
		dst := buildSide(t, rng, dstKind, ctx, p, n, src.set.Size())
		f := func(g int32) float64 { return float64(g)*7 + 0.375 }
		h := func(g int32) float64 { return float64(g)*0.25 + 500 }
		src.fill(f)
		if op == "add" {
			dst.fill(h)
		}
		sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
			&core.Spec{Lib: src.lib, Obj: src.obj, Set: src.set, Ctx: ctx},
			&core.Spec{Lib: dst.lib, Obj: dst.obj, Set: dst.set, Ctx: ctx},
			method)
		if err != nil {
			mismatch = fmt.Sprintf("ComputeSchedule: %v", err)
			return
		}
		switch op {
		case "copy":
			if r := sched.Move(src.obj, dst.obj); !r.OK() {
				mismatch = fmt.Sprintf("move failed peers: %v", r.FailedPeers)
				return
			}
		case "add":
			if r := sched.MoveAdd(src.obj, dst.obj); !r.OK() {
				mismatch = fmt.Sprintf("moveadd failed peers: %v", r.FailedPeers)
				return
			}
		case "reverse":
			sched.Move(src.obj, dst.obj)
			src.fill(func(int32) float64 { return -1 }) // wipe
			if r := sched.MoveReverse(src.obj, dst.obj); !r.OK() {
				mismatch = fmt.Sprintf("reverse move failed peers: %v", r.FailedPeers)
				return
			}
		}
		var s map[int32]float64
		if op == "reverse" {
			s = src.snapshot(p.Comm())
		} else {
			s = dst.snapshot(p.Comm())
		}
		if p.Rank() == 0 {
			snap = s
		}
	}
	st := mpsim.Run(cfg)
	if mismatch != "" {
		t.Fatal(mismatch)
	}
	return snap, st
}

// TestChaosCrosstestSweep runs copy, add and reverse moves across all
// 25 library pairings under the configured fault profile (plus one
// transient partition) and checks three properties: results are
// bit-identical to the fault-free run, the faults actually fired
// (sweep-total drops and retransmits are nonzero), and the same seed
// reproduces the same virtual-time outcome.
func TestChaosCrosstestSweep(t *testing.T) {
	seed := chaosSeed(t)
	profName := chaosProfile()
	mkInjector := func() mpsim.FaultInjector {
		prof, err := faultsim.ByName(profName, seed)
		if err != nil {
			t.Fatal(err)
		}
		if prof == nil {
			t.Skipf("CHAOS_PROFILE=%s injects nothing", profName)
		}
		// One transient partition early in the run: rank 0 is cut off
		// long enough to force retransmission-driven recovery.
		prof.Partitions = append(prof.Partitions, faultsim.Partition{Start: 0.002, End: 0.010, Ranks: []int{0}})
		return prof
	}
	var drops, retransmits int64
	ops := []string{"copy", "add", "reverse"}
	for i, srcKind := range kinds {
		for j, dstKind := range kinds {
			op := ops[(i*len(kinds)+j)%len(ops)]
			method := core.Cooperation
			if (i+j)%2 == 1 {
				method = core.Duplication
			}
			srcKind, dstKind := srcKind, dstKind
			t.Run(fmt.Sprintf("%s-to-%s-%s", srcKind, dstKind, op), func(t *testing.T) {
				caseSeed := int64(seed)*100 + int64(i*len(kinds)+j)
				want, _ := chaosRun(t, srcKind, dstKind, op, method, caseSeed, nil)
				got, st := chaosRun(t, srcKind, dstKind, op, method, caseSeed, mkInjector())
				if len(got) != len(want) {
					t.Fatalf("snapshot sizes differ: faulty %d, clean %d", len(got), len(want))
				}
				for g, v := range want {
					if got[g] != v {
						t.Fatalf("element %d = %g under faults, want %g (bit-identical)", g, got[g], v)
					}
				}
				drops += st.TotalDrops()
				retransmits += st.TotalRetransmits()

				// Same seed, fresh injector: the virtual-time outcome
				// must reproduce exactly.
				_, st2 := chaosRun(t, srcKind, dstKind, op, method, caseSeed, mkInjector())
				if st2.MakespanSeconds != st.MakespanSeconds ||
					st2.TotalRetransmits() != st.TotalRetransmits() ||
					st2.TotalDrops() != st.TotalDrops() {
					t.Fatalf("nondeterministic replay: makespan %g vs %g, rexmit %d vs %d, drops %d vs %d",
						st2.MakespanSeconds, st.MakespanSeconds,
						st2.TotalRetransmits(), st.TotalRetransmits(),
						st2.TotalDrops(), st.TotalDrops())
				}
			})
		}
	}
	if drops == 0 || retransmits == 0 {
		t.Errorf("sweep totals: drops=%d retransmits=%d; the chaos profile must actually inject faults", drops, retransmits)
	}
}
