package mpsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to come back down to
// base: a finished coroutine is gone by the time next returns, but the
// shard workers of a multi-shard run exit asynchronously once told to.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive after the failed run, want the pre-run %d",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// runExpectingPanic runs cfg, which must fail, and returns the message.
func runExpectingPanic(t *testing.T, cfg Config) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run returned; want a panic")
		}
		msg = fmt.Sprint(r)
	}()
	Run(cfg)
	return ""
}

// TestFailedRunUnwindsEveryRank pins the abandon path: when a run
// fails — a body panics, or every live rank deadlocks — the ranks still
// parked (runnable, blocked in Recv, never started) are unwound before
// Run panics, so no goroutine outlives the world.
func TestFailedRunUnwindsEveryRank(t *testing.T) {
	const ranks = 16
	released := make([]bool, ranks)
	failing := map[string]func(p *Proc){
		// Rank 5 dies mid-exchange: its ring successor ends up blocked in
		// Recv, ranks further round still runnable.
		"panicked": func(p *Proc) {
			defer func() { released[p.Rank()] = true }()
			ringBody(2, 64)(p)
			if p.Rank() == 5 {
				panic("boom")
			}
			ringBody(8, 64)(p)
		},
		// Rank 0 dies before anyone else has run a single instruction.
		"panicked at once": func(p *Proc) {
			defer func() { released[p.Rank()] = true }()
			if p.Rank() == 0 {
				panic("boom")
			}
			ringBody(2, 64)(p)
		},
		"deadlock": func(p *Proc) {
			defer func() { released[p.Rank()] = true }()
			p.Comm().Recv((p.Rank()+1)%ranks, 3)
		},
	}
	for name, body := range failing {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				for i := range released {
					released[i] = false
				}
				base := runtime.NumGoroutine()
				pinShards(t, shards)
				msg := runExpectingPanic(t, Config{
					Machine:  SP2(),
					Programs: []ProgramSpec{{Name: "ring", Procs: ranks, ProcsPerNode: 1, Body: body}},
				})
				if want := strings.Fields(name)[0]; !strings.Contains(msg, want) {
					t.Errorf("panic %q does not mention %q", msg, want)
				}
				settleGoroutines(t, base)
				if name == "panicked at once" {
					return // never-started ranks have no deferred work to run
				}
				for r, ok := range released {
					if !ok {
						t.Errorf("rank %d's deferred cleanup did not run", r)
					}
				}
			})
		}
	}
}
