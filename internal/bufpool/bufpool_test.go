package bufpool

import (
	"bytes"
	"sync"
	"testing"
)

// checkNoLeaks asserts every handed-out object was released.
func checkNoLeaks(t *testing.T, p *Pool) {
	t.Helper()
	if n := p.LiveSegments(); n != 0 {
		t.Fatalf("leak check: %d segments still live", n)
	}
	if n := p.LivePayloads(); n != 0 {
		t.Fatalf("leak check: %d payloads still live", n)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 22, numClasses - 1}, {1<<22 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestSegmentRecycle(t *testing.T) {
	p := New()
	s := p.GetSegment(100)
	if cap(s.Bytes()) < 100 {
		t.Fatalf("segment capacity %d < requested 100", cap(s.Bytes()))
	}
	if n := p.LiveSegments(); n != 1 {
		t.Fatalf("live segments = %d before release, want 1", n)
	}
	s.Release()
	s2 := p.GetSegment(100)
	if s2 != s {
		t.Error("same-class segment was not recycled")
	}
	s2.Release()

	// Oversize segments are one-shot: handed out exact-size, never
	// recycled.
	big := p.GetSegment(1<<22 + 1)
	if len(big.Bytes()) != 1<<22+1 {
		t.Fatalf("oversize segment length %d", len(big.Bytes()))
	}
	big.Release()
	checkNoLeaks(t, p)
}

func TestPayloadViewsAndStaging(t *testing.T) {
	p := New()
	src := []byte("hello, scatter-gather world")
	pl := p.GetPayload()
	pl.AddView(src[:5])
	seg := p.GetSegment(16)
	staged := append(seg.Bytes()[:0], src[5:12]...)
	pl.AttachSegment(seg)
	pl.AddView(staged)
	pl.AddView(src[12:])
	pl.AddView(nil) // empty views are dropped

	if pl.Len() != len(src) {
		t.Fatalf("payload length %d, want %d", pl.Len(), len(src))
	}
	if got := pl.Flatten(); !bytes.Equal(got, src) {
		t.Fatalf("flatten = %q, want %q", got, src)
	}
	if len(pl.Segments()) != 3 {
		t.Fatalf("segment count %d, want 3", len(pl.Segments()))
	}
	pl.Release()
	checkNoLeaks(t, p)
}

// A payload that owns its bytes is born materialized, and gives those
// bytes up uncopied only to its last holder; a pooled (Materialize'd)
// segment is never handed out, because the pool will recycle it.
func TestOwnPayloadFlatten(t *testing.T) {
	p := New()
	b := []byte("owned outright")
	pl := p.OwnPayload(b)
	if !pl.Materialized() || pl.Len() != len(b) || pl.Materialize() != 0 {
		t.Fatalf("owned payload: materialized %v, len %d", pl.Materialized(), pl.Len())
	}
	pl.Retain() // a queued message still references it
	shared := pl.Flatten()
	if !bytes.Equal(shared, b) || &shared[0] == &b[0] {
		t.Fatal("shared owned payload must flatten to a private copy")
	}
	pl.Release()
	last := pl.Flatten()
	if &last[0] != &b[0] || pl.Len() != 0 {
		t.Fatalf("last holder did not get the owned bytes back uncopied (payload keeps %d bytes)", pl.Len())
	}
	pl.Release()

	pooled := p.GetPayload()
	pooled.AddView(b)
	pooled.Materialize()
	seg := pooled.Segments()[0]
	if got := pooled.Flatten(); &got[0] == &seg[0] {
		t.Fatal("flatten handed out a pooled segment")
	}
	pooled.Release()

	empty := p.OwnPayload(nil)
	if got := empty.Flatten(); len(got) != 0 {
		t.Fatalf("empty owned payload flattened to %d bytes", len(got))
	}
	empty.Release()
	checkNoLeaks(t, p)
}

func TestMaterializeSeversViews(t *testing.T) {
	p := New()
	src := []byte("0123456789")
	pl := p.GetPayload()
	pl.AddView(src)
	pl.Retain() // a simulated transport reference

	if copied := pl.Materialize(); copied != len(src) {
		t.Fatalf("materialize copied %d bytes, want %d", copied, len(src))
	}
	if !pl.Materialized() {
		t.Fatal("payload not marked materialized")
	}
	if copied := pl.Materialize(); copied != 0 {
		t.Fatalf("second materialize copied %d bytes, want 0", copied)
	}
	// Mutating the borrowed source must not change the payload now.
	src[0] = 'X'
	if got := pl.Flatten(); !bytes.Equal(got, []byte("0123456789")) {
		t.Fatalf("materialized payload changed with its source: %q", got)
	}
	pl.Release()
	pl.Release()
	checkNoLeaks(t, p)
}

// TestCopyPayloadRecycles: a copied payload is materialized at birth,
// independent of its source, and its segment goes back to the pool with
// the last reference, so the next copy of that size reuses it.
func TestCopyPayloadRecycles(t *testing.T) {
	p := New()
	src := []byte("copied in")
	pl := p.CopyPayload(src)
	src[0] = 'X'
	if !pl.Materialized() || pl.Materialize() != 0 || !bytes.Equal(pl.AppendTo(nil), []byte("copied in")) {
		t.Fatalf("copied payload: materialized %v, bytes %q", pl.Materialized(), pl.AppendTo(nil))
	}
	seg := &pl.Segments()[0][0]
	pl.Release()
	again := p.CopyPayload(src)
	if &again.Segments()[0][0] != seg {
		t.Error("a released copy's segment was not reused")
	}
	again.Release()

	empty := p.CopyPayload(nil)
	if !empty.Materialized() || empty.Len() != 0 || p.LiveSegments() != 0 {
		t.Fatalf("empty copy: materialized %v, len %d, %d segments live", empty.Materialized(), empty.Len(), p.LiveSegments())
	}
	empty.Release()
	checkNoLeaks(t, p)
}

func TestOverReleasePanics(t *testing.T) {
	p := New()
	pl := p.GetPayload()
	pl.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	pl.Release()
}

// TestConcurrentRefs exercises the pool and refcounts from many
// goroutines; it exists to run under -race in CI's shard-race job.
func TestConcurrentRefs(t *testing.T) {
	p := New()
	const workers = 8
	var wg sync.WaitGroup
	shared := p.GetPayload()
	shared.AddView([]byte("shared bytes"))
	for i := 0; i < workers; i++ {
		wg.Add(1)
		shared.Retain()
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				s := p.GetSegment(64 + j%512)
				pl := p.GetPayload()
				pl.AttachSegment(s) // takes over the reference
				pl.AddView(s.Bytes()[:1])
				pl.Release()
			}
			shared.Release()
		}()
	}
	wg.Wait()
	shared.Release()
	checkNoLeaks(t, p)
}
