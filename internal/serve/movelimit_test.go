package serve

import (
	"bufio"
	"errors"
	"net"
	"testing"

	"metachaos/internal/codec"
)

// TestMoveFrameBytes checks the fixed byte counts the frame-limit checks
// use against the encodings both endpoints really produce.
func TestMoveFrameBytes(t *testing.T) {
	// The request: a client move with an explicit payload, captured by a
	// peer that answers with an error.
	a, b := net.Pipe()
	defer a.Close()
	c := &Client{conn: a, rd: bufio.NewReader(a), nextID: 1}
	got := make(chan int, 1)
	go func() {
		defer b.Close()
		_, id, p, err := readFrame(b, maxFrame)
		got <- len(p)
		if err == nil {
			writeFrame(b, msgError, id, encodeError(ErrUnknownCoupling))
		}
	}()
	values := make([]float64, 37)
	if _, err := c.move(1, OpMove, 0, values, false); !errors.Is(err, ErrUnknownCoupling) {
		t.Fatalf("move: %v, want the peer's ErrUnknownCoupling", err)
	}
	if n := <-got; n != moveReqFixed+8*len(values) {
		t.Errorf("move request payload %d bytes, want %d", n, moveReqFixed+8*len(values))
	}

	// The reply: a WantData move through the daemon, over raw frames.
	_, sock := startServer(t, Options{FlushWindow: -1})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawHello(t, conn, "raw", "", 1)
	src, dst := testSpecs()
	for i, spec := range []DistSpec{src, dst} {
		var w codec.Writer
		w.PutInt32(int32(i + 1))
		putSpec(&w, &spec)
		if rtyp, rp := rawReq(t, conn, msgRegisterDist, uint32(2+i), w.Bytes()); rtyp != msgOK {
			t.Fatalf("register: %v", decodeError(rp))
		}
	}
	var w codec.Writer
	w.PutInt32(1)
	w.PutInt32(1)
	w.PutInt32(2)
	if rtyp, rp := rawReq(t, conn, msgOpenCoupling, 4, w.Bytes()); rtyp != msgCouplingReady {
		t.Fatalf("open: %v", decodeError(rp))
	}
	w.Reset()
	w.PutInt32(1)
	w.PutInt32(OpMove)
	w.PutInt64(5)
	w.PutInt32(flagWantData)
	rtyp, rp := rawReq(t, conn, msgMove, 5, w.Bytes())
	if rtyp != msgMoveDone {
		t.Fatalf("move: %v", decodeError(rp))
	}
	if want := moveReplyFixed + 8*src.elems(); len(rp) != want {
		t.Errorf("move reply payload %d bytes, want %d", len(rp), want)
	}
}

// TestOversizedMovePayloadFailsAtOnce: a payload that cannot fit one
// frame is refused before a byte is written, and never retried.
func TestOversizedMovePayloadFailsAtOnce(t *testing.T) {
	conn := &writeCounter{}
	c := &Client{conn: conn, nextID: 1}
	values := make([]float64, (maxFrame-moveReqFixed)/8+1)
	if _, err := c.move(1, OpMove, 0, values, false); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized payload: %v, want ErrTooLarge", err)
	}
	if conn.writes != 0 || c.Retries() != 0 || c.Reconnects() != 0 {
		t.Errorf("writes=%d retries=%d reconnects=%d, want none", conn.writes, c.Retries(), c.Reconnects())
	}
}

// writeCounter is a connection that counts writes and fails them.
type writeCounter struct {
	net.Conn
	writes int
}

func (w *writeCounter) Write([]byte) (int, error) {
	w.writes++
	return 0, net.ErrClosed
}

// TestOversizedMoveReplyFailsAtOnce: a WantData move whose landed data
// cannot fit one reply frame is refused with ErrBadSpec before it runs,
// and the client does not resend it.  The coupling's element count is
// raised in place, so no world of that size is built.
func TestOversizedMoveReplyFailsAtOnce(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "big")
	defer c.Close()
	_, elems := setupCoupling(t, c)

	srv.mu.Lock()
	st := srv.states[c.token]
	srv.mu.Unlock()
	resize := func(n int) {
		st.reqMu.Lock()
		st.cpls[1].elems = n
		st.reqMu.Unlock()
	}
	resize((maxFrame-moveReplyFixed)/8 + 1) // one word per element
	if _, err := c.move(1, OpMove, 1, nil, true); !errors.Is(err, ErrBadSpec) {
		t.Errorf("oversized reply: %v, want ErrBadSpec", err)
	}
	if c.Retries() != 0 || c.Reconnects() != 0 {
		t.Errorf("retries=%d reconnects=%d, want none", c.Retries(), c.Reconnects())
	}
	if n := srv.Stats()["serve_moves_total"]; n != 0 {
		t.Errorf("serve_moves_total = %v, want 0: the refused move ran", n)
	}
	resize(elems)
	if _, err := c.move(1, OpMove, 1, nil, true); err != nil {
		t.Errorf("the same move on the true size: %v", err)
	}
}
