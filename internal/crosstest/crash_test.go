// Crash chaos: the cross-library harness under fail-stop faults.  A
// seed-derived rank dies mid-sweep (crashy), or dies and restarts
// (flaky); unlike the message-fault sweeps there is no bit-identical
// result to assert — a dead rank's block is simply gone — so the
// contract here is graceful degradation: every surviving process
// terminates with a classified peer-death outcome instead of hanging,
// the crash is detected, and the whole degraded run replays
// deterministically under the same seed.
package crosstest

import (
	"errors"
	"fmt"
	"testing"

	"math/rand"

	"metachaos/internal/core"
	"metachaos/internal/faultsim"
	"metachaos/internal/mpsim"
)

// crashClass folds a transfer error into a stable label so outcomes
// can be compared across replays.
func crashClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, mpsim.ErrPeerDead):
		return "peer-dead"
	case errors.Is(err, mpsim.ErrPeerUnreachable):
		return "peer-unreachable"
	case errors.Is(err, mpsim.ErrTimeout):
		return "timeout"
	default:
		return "error"
	}
}

// crashRun executes one cross-library transfer, iterated so the run
// comfortably spans the profile's crash window, under a crash-
// scheduling fault profile.  Each rank's entire workload runs inside a
// deadline scope, so peer death surfaces as a classified outcome
// rather than a hang; the killed rank's incarnation unwinds without
// recording one (a restarted incarnation may record its own).
func crashRun(t *testing.T, srcKind, dstKind, op string, method core.Method, seed int64, prof *faultsim.Profile) ([3]string, *mpsim.Stats) {
	t.Helper()
	const n, nprocs, iters = 32, 3, 12
	const budget = 0.5 // virtual seconds; far past crash + detection lag
	var outcomes [3]string
	cfg := mpsim.Config{
		Machine:  mpsim.SP2(),
		Fault:    prof,
		Reliable: true,
		Crash:    prof.CrashPlan(),
		Programs: []mpsim.ProgramSpec{{Name: "spmd", Procs: nprocs, Body: nil}},
	}
	cfg.Programs[0].Body = func(p *mpsim.Proc) {
		me := p.Rank()
		result := ""
		err := p.WithTimeout(budget, func() {
			rng := rand.New(rand.NewSource(seed))
			ctx := core.NewCtx(p, p.Comm())
			src := buildSide(t, rng, srcKind, ctx, p, n, -1)
			dst := buildSide(t, rng, dstKind, ctx, p, n, src.set.Size())
			src.fill(func(g int32) float64 { return float64(g)*3 + 1 })
			sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
				&core.Spec{Lib: src.lib, Obj: src.obj, Set: src.set, Ctx: ctx},
				&core.Spec{Lib: dst.lib, Obj: dst.obj, Set: dst.set, Ctx: ctx},
				method)
			if err != nil {
				result = "schedule-error"
				return
			}
			for it := 0; it < iters; it++ {
				// Pace the iterations so the workload spans the profile's
				// 2–8ms crash window on every pairing (some transfers
				// would otherwise finish before the crash fires).
				p.SleepUntil(p.Clock() + 1e-3)
				var r core.MoveResult
				switch op {
				case "add":
					r = sched.MoveAdd(src.obj, dst.obj)
				case "reverse":
					r = sched.MoveReverse(src.obj, dst.obj)
				default:
					r = sched.Move(src.obj, dst.obj)
				}
				if !r.OK() {
					result = fmt.Sprintf("failed-peers %v", r.FailedPeers)
					return
				}
			}
			result = "ok"
		})
		if err != nil {
			outcomes[me] = crashClass(err)
		} else {
			outcomes[me] = result
		}
		// Keep the world alive past the latest possible flaky restart
		// (~20ms) so restarts land inside the run and get recorded.
		p.SleepUntil(0.03)
	}
	return outcomes, mpsim.Run(cfg)
}

// TestChaosCrashSweep runs a representative subset of the library
// pairings under the crashy and flaky profiles.  Per case: exactly one
// seeded crash fires and is recorded (with detection after death, and a
// restart when flaky schedules one), no rank hangs, and the same seed
// replays the same outcomes, makespan and crash history.  Across the
// sweep, at least one case must actually observe the death — a sweep
// where every rank finishes cleanly means the crash window missed the
// workload entirely.
func TestChaosCrashSweep(t *testing.T) {
	seed := chaosSeed(t)
	cases := []struct {
		src, dst, op, prof string
		method             core.Method
	}{
		{"hpf", "mbparti", "copy", "crashy", core.Cooperation},
		{"mbparti", "chaos", "add", "crashy", core.Duplication},
		{"chaos", "pcxx", "reverse", "crashy", core.Cooperation},
		{"pcxx", "lparx", "copy", "flaky", core.Duplication},
		{"lparx", "hpf", "add", "crashy", core.Cooperation},
	}
	sawDeath := false
	for i, tc := range cases {
		tc := tc
		caseSeed := int64(seed)*300 + int64(i)
		t.Run(fmt.Sprintf("%s-to-%s-%s-%s", tc.src, tc.dst, tc.op, tc.prof), func(t *testing.T) {
			mk := func() *faultsim.Profile {
				prof, err := faultsim.ByName(tc.prof, uint64(caseSeed))
				if err != nil {
					t.Fatal(err)
				}
				return prof
			}
			out, st := crashRun(t, tc.src, tc.dst, tc.op, tc.method, caseSeed, mk())
			if len(st.Crashes) != 1 {
				t.Fatalf("crash history = %+v, want exactly one record", st.Crashes)
			}
			rec := st.Crashes[0]
			if rec.Rank < 0 || rec.Rank >= 3 {
				t.Errorf("crash hit world rank %d, want one of the 3 ranks", rec.Rank)
			}
			if rec.DetectedAt != 0 && rec.DetectedAt <= rec.At {
				t.Errorf("detection at %g not after crash at %g", rec.DetectedAt, rec.At)
			}
			if tc.prof == "flaky" && rec.RestartAt == 0 {
				t.Errorf("flaky profile never restarted the rank: %+v", rec)
			}
			for r, o := range out {
				if o == "" && r != rec.Rank {
					t.Errorf("surviving rank %d finished without an outcome: %v", r, out)
				}
			}
			if out[rec.Rank] == "" {
				sawDeath = true // the killed incarnation unwound mid-workload
			}
			for r, o := range out {
				if r != rec.Rank && o != "" && o != "ok" {
					sawDeath = true // a survivor saw the death
				}
			}

			// Same seed, fresh profile: the degraded run must replay
			// exactly — outcomes, makespan, crash history and transport
			// counters.
			out2, st2 := crashRun(t, tc.src, tc.dst, tc.op, tc.method, caseSeed, mk())
			if out2 != out ||
				st2.MakespanSeconds != st.MakespanSeconds ||
				fmt.Sprint(st2.Crashes) != fmt.Sprint(st.Crashes) ||
				st2.TotalDrops() != st.TotalDrops() ||
				st2.TotalRetransmits() != st.TotalRetransmits() {
				t.Fatalf("nondeterministic replay:\n  outcomes %v vs %v\n  makespan %g vs %g\n  crashes %v vs %v",
					out2, out, st2.MakespanSeconds, st.MakespanSeconds, st2.Crashes, st.Crashes)
			}
		})
	}
	if !sawDeath {
		t.Error("no case observed the crash: every rank finished cleanly in every pairing")
	}
}
