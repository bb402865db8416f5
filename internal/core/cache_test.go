package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"metachaos/internal/mpsim"
)

// cacheLen is the number of cached schedules.
func cacheLen(c *ScheduleCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func TestScheduleCacheHitsAndMisses(t *testing.T) {
	mpsim.RunSPMD(mpsim.SP2(), 2, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(20, 2, 1, p.Rank())
		dst := newTestObj(20, 2, 1, p.Rank())
		cache := NewScheduleCache()
		builds := 0
		build := func() (*Schedule, error) {
			builds++
			return ComputeSchedule(SingleProgram(p.Comm()),
				&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(seqIdx(0, 10, 1))), Ctx: ctx},
				&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(seqIdx(10, 10, 1))), Ctx: ctx},
				Cooperation)
		}
		var before float64
		for iter := 0; iter < 5; iter++ {
			s, err := cache.Get("loop-17", Float64, build)
			if err != nil {
				t.Errorf("%v", err)
				return
			}
			if iter == 1 {
				before = p.Clock()
			}
			s.Move(src, dst)
		}
		_ = before
		if builds != 1 {
			t.Errorf("build ran %d times, want 1", builds)
		}
		hits, misses := cache.Counters()
		if hits != 4 || misses != 1 {
			t.Errorf("hits=%d misses=%d", hits, misses)
		}
		if cacheLen(cache) != 1 {
			t.Errorf("Len=%d", cacheLen(cache))
		}
		// A membership change drops the entry; the next Get rebuilds.
		cache.SetIncarnation(1)
		if cacheLen(cache) != 0 {
			t.Error("SetIncarnation did not drop the entry")
		}
		if _, err := cache.Get("loop-17", Float64, build); err != nil {
			t.Errorf("rebuild after a new incarnation: %v", err)
		}
		if builds != 2 {
			t.Errorf("builds=%d want 2", builds)
		}
	})
}

// TestScheduleCacheBuildRaces pins what Get does when the cache moves
// while a build runs outside its lock: a membership change hands the
// build to its caller without caching it, and an entry another caller
// inserted first wins.
func TestScheduleCacheBuildRaces(t *testing.T) {
	cache := NewScheduleCache()
	s, err := cache.Get("k", Float64, func() (*Schedule, error) {
		cache.SetIncarnation(1)
		return &Schedule{elem: Float64}, nil
	})
	if err != nil || s == nil || cacheLen(cache) != 0 {
		t.Fatalf("build across a new incarnation: s=%p err=%v Len=%d, want returned but not cached", s, err, cacheLen(cache))
	}
	first := &Schedule{elem: Float64}
	s, err = cache.Get("k", Float64, func() (*Schedule, error) {
		if _, err := cache.Get("k", Float64, func() (*Schedule, error) { return first, nil }); err != nil {
			t.Fatal(err)
		}
		return &Schedule{elem: Float64}, nil
	})
	if err != nil || s != first {
		t.Fatalf("lost insert race: got %p err=%v, want the first insert %p", s, err, first)
	}
}

func TestScheduleCacheDoesNotCacheFailures(t *testing.T) {
	cache := NewScheduleCache()
	calls := 0
	fail := func() (*Schedule, error) {
		calls++
		return nil, errors.New("boom")
	}
	if _, err := cache.Get("k", Float64, fail); err == nil {
		t.Fatal("expected error")
	}
	if _, err := cache.Get("k", Float64, fail); err == nil {
		t.Fatal("expected error on retry")
	}
	if calls != 2 {
		t.Errorf("failed build cached: %d calls", calls)
	}
	if cacheLen(cache) != 0 {
		t.Error("failure left an entry")
	}
}

// TestScheduleCacheKeyedByElemType pins the bugfix: the same caller key
// used for two element types builds two distinct schedules — a float64
// schedule is never served for a same-width int64 transfer — and a
// build whose schedule disagrees with the declared element type is
// rejected rather than cached.
func TestScheduleCacheKeyedByElemType(t *testing.T) {
	cache := NewScheduleCache()
	builds := 0
	buildFor := func(et ElemType) func() (*Schedule, error) {
		return func() (*Schedule, error) {
			builds++
			return &Schedule{elem: et}, nil
		}
	}
	f, err := cache.Get("loop-3", Float64, buildFor(Float64))
	if err != nil {
		t.Fatal(err)
	}
	i, err := cache.Get("loop-3", Int64, buildFor(Int64))
	if err != nil {
		t.Fatal(err)
	}
	if f == i {
		t.Fatal("float64 and int64 transfers shared one cached schedule")
	}
	if builds != 2 || cacheLen(cache) != 2 {
		t.Errorf("builds=%d Len=%d, want 2 entries", builds, cacheLen(cache))
	}
	// Hits stay per-type.
	if s, _ := cache.Get("loop-3", Float64, buildFor(Float64)); s != f {
		t.Error("float64 hit returned a different schedule")
	}
	if builds != 2 {
		t.Errorf("hit rebuilt: builds=%d", builds)
	}
	// A schedule that contradicts the declared type is rejected.
	if _, err := cache.Get("bad", Float32, buildFor(Int32)); err == nil {
		t.Error("mismatched element type accepted into the cache")
	}
	if cacheLen(cache) != 2 {
		t.Errorf("mismatch was cached: Len=%d", cacheLen(cache))
	}
}

// TestScheduleCacheConcurrent hammers one cache from many goroutines —
// Get (hit and miss), SetIncarnation, SetLimit and the read-side
// accessors all interleave.  The coupling service shares a
// cache across tenant sessions, so this must be provably clean under
// the race detector before the service can stand on it.  The test
// asserts no race, no lost schedule (every Get returns a schedule of
// the declared element type), and a coherent final state.
func TestScheduleCacheConcurrent(t *testing.T) {
	cache := NewScheduleCache()
	keys := []string{"pair-a", "pair-b", "pair-c", "pair-d"}
	elems := []ElemType{Float64, Int64, Float32}
	var wg sync.WaitGroup
	const workers = 16
	const iters = 400
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := keys[(g+i)%len(keys)]
				et := elems[(g*7+i)%len(elems)]
				switch i % 8 {
				case 7:
					if g%2 == 0 {
						cache.SetIncarnation(i % 5)
					} else {
						cache.SetLimit(i % 4) // 0 lifts the bound
					}
				default:
					s, err := cache.Get(key, et, func() (*Schedule, error) {
						return &Schedule{elem: et}, nil
					})
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if s.elem != et {
						t.Errorf("Get(%q, %v) returned a %v schedule", key, et, s.elem)
						return
					}
				}
				cacheLen(cache)
				cache.Counters()
				cache.Evictions()
			}
		}(g)
	}
	wg.Wait()
	hits, misses := cache.Counters()
	if hits+misses == 0 {
		t.Error("no lookups were counted")
	}
	if cacheLen(cache) > len(keys)*len(elems) {
		t.Errorf("cache holds %d entries, more than the %d possible keys",
			cacheLen(cache), len(keys)*len(elems))
	}
}

// TestScheduleCacheLRUBound pins the bounded-cache contract: with a
// limit set, inserts evict the least-recently-used entry (a Get hit
// counts as use), the eviction counter tracks every displacement, and
// shrinking the limit evicts down immediately.  Eviction order is a
// pure function of the Get stream, which is what lets SPMD callers
// run bounded caches without desynchronizing across ranks.
func TestScheduleCacheLRUBound(t *testing.T) {
	cache := NewScheduleCache()
	builds := map[string]int{}
	get := func(key string) {
		t.Helper()
		if _, err := cache.Get(key, Float64, func() (*Schedule, error) {
			builds[key]++
			return &Schedule{elem: Float64}, nil
		}); err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
	}

	cache.SetLimit(2)
	get("A") // build; {A}
	get("B") // build; {A, B}
	get("A") // hit: A is now fresher than B
	get("C") // build; evicts B (LRU); {A, C}
	get("A") // hit
	get("B") // rebuild; evicts C; {A, B}
	get("A") // hit

	if want := map[string]int{"A": 1, "B": 2, "C": 1}; builds["A"] != want["A"] || builds["B"] != want["B"] || builds["C"] != want["C"] {
		t.Errorf("builds = %v, want %v", builds, want)
	}
	if ev := cache.Evictions(); ev != 2 {
		t.Errorf("Evictions() = %d, want 2", ev)
	}
	if cacheLen(cache) != 2 {
		t.Errorf("Len() = %d, want 2", cacheLen(cache))
	}
	hits, misses := cache.Counters()
	if hits != 3 || misses != 4 {
		t.Errorf("hits=%d misses=%d, want 3/4", hits, misses)
	}

	// Shrinking the limit evicts down to the new bound at once.
	cache.SetLimit(1)
	if cacheLen(cache) != 1 || cache.Evictions() != 3 {
		t.Errorf("after SetLimit(1): Len=%d Evictions=%d, want 1/3", cacheLen(cache), cache.Evictions())
	}
	// The survivor is the most recently used entry.
	get("A")
	if builds["A"] != 1 {
		t.Errorf("A was evicted instead of the LRU entry (built %d times)", builds["A"])
	}

	// SetLimit(0) restores the unbounded default.
	cache.SetLimit(0)
	for _, k := range []string{"D", "E", "F", "G"} {
		get(k)
	}
	if cacheLen(cache) != 5 {
		t.Errorf("unbounded Len() = %d, want 5", cacheLen(cache))
	}
	if cache.Evictions() != 3 {
		t.Errorf("unbounded inserts evicted: %d, want 3", cache.Evictions())
	}
}

// TestScheduleCacheUnboundedByDefault pins that the zero value never
// evicts, whatever the insert volume — existing callers see no
// behavior change from the bounded-cache feature.
func TestScheduleCacheUnboundedByDefault(t *testing.T) {
	cache := NewScheduleCache()
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := cache.Get(key, Float64, func() (*Schedule, error) {
			return &Schedule{elem: Float64}, nil
		}); err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
	}
	if cacheLen(cache) != 500 {
		t.Errorf("Len() = %d, want 500", cacheLen(cache))
	}
	if cache.Evictions() != 0 {
		t.Errorf("Evictions() = %d, want 0", cache.Evictions())
	}
}
