package mpsim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// The hand-off's edge cases: each rank is a coroutine that must run to
// its end on every path out of a run, and only the goroutine driving
// its shard — or the quiesced coordinator — may resume it.
// TestFailedRunUnwindsEveryRank (abandon_test.go) covers the body-panic
// and deadlock exits; these cover the rest.

// TestKilledBeforeFirstResume: a crash timer at t=0 fires before any
// process resumption at t=0, so the victim's coroutine is started by
// reap, not runWindow — and must die before its body's first
// instruction, settled like any other death.
func TestKilledBeforeFirstResume(t *testing.T) {
	for _, shards := range []int{1, 4} {
		entered := make([]bool, 8)
		pinShards(t, shards)
		w, err := newWorld(Config{
			Machine: SP2(),
			Crash:   testPlan{{Rank: 6, At: 0}},
			Programs: []ProgramSpec{{Name: "spmd", Procs: 8, Body: func(p *Proc) {
				entered[p.Rank()] = true
				p.SleepUntil(p.Clock() + 1e-3)
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		st := w.run()
		for r, in := range entered {
			if in == (r == 6) {
				t.Errorf("shards=%d: rank %d entered its body = %v", shards, r, in)
			}
		}
		if p := w.procs[6]; p.state != stateDone || p.finalClock != 0 {
			t.Errorf("shards=%d: victim settled as state %d at clock %g, want stateDone at 0", shards, p.state, p.finalClock)
		}
		if len(st.Crashes) != 1 || st.Crashes[0].Rank != 6 || st.Crashes[0].At != 0 {
			t.Errorf("shards=%d: Crashes = %+v, want rank 6 at 0", shards, st.Crashes)
		}
	}
}

// TestCompletedRunLeavesNoGoroutines: after a run that returns, every
// coroutine has finished — none is left parked — including a crashed
// rank's first incarnation and its restart.
func TestCompletedRunLeavesNoGoroutines(t *testing.T) {
	const crashAt, restartAt = 0.004, 0.012
	runs := map[string]Config{
		"normal": {Programs: []ProgramSpec{{Name: "ring", Procs: 16, Body: ringBody(8, 64)}}},
		"crash+restart": {
			Crash: testPlan{{Rank: 13, At: crashAt, RestartAt: restartAt}},
			Programs: []ProgramSpec{{Name: "spmd", Procs: 16, Body: func(p *Proc) {
				if p.Rank() == 13 && p.Clock() == 0 {
					idleUntilKilled(p)
				}
				p.SleepUntil(2 * restartAt)
			}}},
		},
	}
	for name, cfg := range runs {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				base := runtime.NumGoroutine()
				cfg.Machine = SP2()
				st := runAt(t, shards, cfg)
				if name == "crash+restart" && (len(st.Crashes) != 1 || st.Crashes[0].RestartAt != restartAt) {
					t.Errorf("Crashes = %+v, want one restarted at %g", st.Crashes, restartAt)
				}
				settleGoroutines(t, base) // shard workers exit asynchronously
			})
		}
	}
}

// TestCoordinatorReapsAcrossShards: with more than one shard a crash
// timer is the coordinator's, so it resumes (to unwind) coroutines that
// worker goroutines started and last ran — once blocked in a receive,
// once merely runnable.  Meaningful under -race: the window barrier is
// the only ordering between the two goroutines' use of one coroutine.
func TestCoordinatorReapsAcrossShards(t *testing.T) {
	const crashAt = 0.005
	unwound := make([]bool, 16)
	var gotErr error
	st := runAt(t, 4, Config{
		Machine: SP2(),
		Crash:   testPlan{{Rank: 9, At: crashAt}, {Rank: 14, At: crashAt}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 16, Body: func(p *Proc) {
			defer func() { unwound[p.Rank()] = true }()
			switch p.Rank() {
			case 9:
				p.World().Recv(0, 3) // never sent: killed while blocked
			case 14:
				idleUntilKilled(p) // killed while runnable
			case 0:
				_, gotErr = recvTimeout(p.World(), 14, 5, 0)
			default: // keep every shard's windows busy around the crash
				for i := 0; i < 20; i++ {
					p.SleepUntil(p.Clock() + float64(p.Rank()+1)*1e-4)
				}
			}
		}}},
	})
	if len(st.Crashes) != 2 {
		t.Fatalf("Crashes = %+v, want two", st.Crashes)
	}
	if !errors.Is(gotErr, ErrPeerDead) {
		t.Errorf("survivor's receive from the dead rank: err = %v, want ErrPeerDead", gotErr)
	}
	for r, ok := range unwound {
		if !ok {
			t.Errorf("rank %d's deferred cleanup did not run", r)
		}
	}
}

// TestGoexitInBodyEndsRunsCaller pins what runtime.Goexit (t.FailNow,
// t.Fatal, t.Skip) inside a Body does: every other rank is unwound, then
// the exit continues in the goroutine that called Run — not in a shard
// worker, and not swallowed as a clean finish.
func TestGoexitInBodyEndsRunsCaller(t *testing.T) {
	const ranks = 16
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			released := make([]bool, ranks)
			var returned, deferredRan bool
			var recovered any
			done := make(chan struct{})
			pinShards(t, shards)
			go func() {
				defer close(done)
				defer func() { deferredRan, recovered = true, recover() }()
				Run(Config{
					Machine: SP2(),
					Programs: []ProgramSpec{{Name: "ring", Procs: ranks, Body: func(p *Proc) {
						defer func() { released[p.Rank()] = true }()
						ringBody(2, 64)(p)
						if p.Rank() == 13 { // owned by a worker's shard when shards=4
							runtime.Goexit()
						}
						ringBody(8, 64)(p)
					}}},
				})
				returned = true
			}()
			<-done
			if returned || !deferredRan || recovered != nil {
				t.Errorf("Run returned = %v, caller's deferred ran = %v, recovered %v; want the caller exited by Goexit",
					returned, deferredRan, recovered)
			}
			for r, ok := range released {
				if !ok {
					t.Errorf("rank %d's deferred cleanup did not run", r)
				}
			}
			settleGoroutines(t, base)
		})
	}
}

// BenchmarkHandoff prices the scheduler hand-off itself: two ranks
// bounce a 0-byte message, so each message is one send (a yield to the
// scheduler) and one blocking receive (a park and a wake) with nothing
// to copy.  ns/msg is the engine's wall price per simulated message.
func BenchmarkHandoff(b *testing.B) {
	RunSPMD(Ideal(), 2, func(p *Proc) {
		c := p.Comm()
		peer := 1 - c.Rank()
		pingPong := func(n int) {
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.Send(peer, 0, nil)
					c.Recv(peer, 0)
				} else {
					c.Recv(peer, 0)
					c.Send(peer, 0, nil)
				}
			}
		}
		pingPong(64) // warm the message freelists
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		pingPong(b.N)
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/msg")
}
