package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"testing/iotest"

	"metachaos/internal/codec"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := writeFrame(&buf, byte(i+1), uint32(100+i), p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		typ, id, payload, err := readFrame(&buf, maxFrame)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if typ != byte(i+1) || id != uint32(100+i) || !bytes.Equal(payload, p) {
			t.Errorf("frame %d: typ=%d id=%d len=%d", i, typ, id, len(payload))
		}
	}
	if _, _, _, err := readFrame(&buf, maxFrame); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, 7, 1, []byte("hello coupling service"))
	b := buf.Bytes()
	b[9] ^= 0x40 // flip a payload bit; the checksum trailer must catch it
	_, _, _, err := readFrame(bytes.NewReader(b), maxFrame)
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("corrupted payload: %v, want ErrProtocol", err)
	}
}

func TestFrameRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, 7, 1, []byte("truncated"))
	b := buf.Bytes()[:buf.Len()-3]
	_, _, _, err := readFrame(bytes.NewReader(b), maxFrame)
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("truncated frame: %v, want ErrProtocol", err)
	}
}

func TestFrameRejectsOversizeAndRunt(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, 7, 1, bytes.Repeat([]byte{1}, 100))
	if _, _, _, err := readFrame(bytes.NewReader(buf.Bytes()), 99); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized payload: %v, want ErrProtocol", err)
	}
	// A frame shorter than its own fixed header is structurally broken.
	var runt [4]byte
	binary.LittleEndian.PutUint32(runt[:], uint32(frameOverhead-1))
	if _, _, _, err := readFrame(bytes.NewReader(runt[:]), maxFrame); !errors.Is(err, ErrProtocol) {
		t.Errorf("runt frame: %v, want ErrProtocol", err)
	}
}

// countingWriter counts Write calls and keeps what they wrote.
type countingWriter struct {
	calls int
	bytes.Buffer
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(b)
}

func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 1 << 16} {
		var w countingWriter
		if err := writeFrame(&w, msgMoveDone, 9, bytes.Repeat([]byte{0x5A}, n)); err != nil {
			t.Fatal(err)
		}
		if w.calls != 1 || w.Len() != 4+frameOverhead+n {
			t.Errorf("%d-byte payload: %d writes of %d bytes, want 1 of %d", n, w.calls, w.Len(), 4+frameOverhead+n)
		}
	}
}

// TestFrameWireBytesGolden pins the wire format: length, type, id,
// payload and FNV-1a trailer, little-endian.
func TestFrameWireBytesGolden(t *testing.T) {
	want := []byte{
		0x15, 0x00, 0x00, 0x00, // 21 bytes follow
		0x07,                   // msgMove
		0x04, 0x03, 0x02, 0x01, // id 0x01020304
		'c', 'o', 'u', 'p', 'l', 'i', 'n', 'g',
		0x06, 0x46, 0xfe, 0x5a, 0x1a, 0x66, 0xc1, 0xd6, // FNV-1a("coupling")
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgMove, 0x01020304, []byte("coupling")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("wire bytes\n got % x\nwant % x", buf.Bytes(), want)
	}
}

// TestMoveWireBytesGolden pins a move's two payloads, 16 bytes each,
// little-endian: the request (i32 coupling id, i32 kind, i64 seed) and
// the reply (u64 hash, f64 cost).  The client writes and reads exactly
// these bytes.  The daemon answers the golden request with Standalone's
// hash, and refuses it with bytes left over (the flags word protocol 2
// sent) before it runs.
func TestMoveWireBytesGolden(t *testing.T) {
	const seed = 0x0102030405060708
	req := []byte{
		0x01, 0x00, 0x00, 0x00, // coupling 1
		0x02, 0x00, 0x00, 0x00, // OpMoveReverse
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // seed
	}
	reply := []byte{
		0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // hash 0x1122334455667788
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // cost 0.5
	}
	a, b := net.Pipe()
	defer a.Close()
	got := make(chan []byte, 1)
	go func() {
		defer b.Close()
		_, id, p, err := readFrame(b, maxFrame)
		got <- p
		if err == nil {
			writeFrame(b, msgMoveDone, id, reply)
		}
	}()
	c := &Client{conn: a, rd: bufio.NewReader(a), nextID: 1}
	st, err := c.Move(1, OpMoveReverse, seed)
	if err != nil {
		t.Fatalf("move: %v", err)
	}
	if p := <-got; !bytes.Equal(p, req) {
		t.Errorf("request payload\n got % x\nwant % x", p, req)
	}
	if st != (MoveStats{Hash: 0x1122334455667788, Cost: 0.5}) {
		t.Errorf("reply decoded to %+v", st)
	}

	srv, sock := startServer(t, Options{FlushWindow: -1})
	d := dialT(t, sock, "golden")
	defer d.Close()
	setupCoupling(t, d)
	rp, err := d.do(msgMove, req, msgMoveDone)
	if err != nil {
		t.Fatalf("golden request: %v", err)
	}
	src, dst := testSpecs()
	ref, err := Standalone(src, dst, []ScriptOp{{Kind: OpMoveReverse, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rp) != 16 || binary.LittleEndian.Uint64(rp) != ref[0].Hash {
		t.Errorf("reply payload % x, want 16 bytes led by standalone's hash %016x", rp, ref[0].Hash)
	}
	if _, err := d.do(msgMove, append(slices.Clone(req), 0, 0, 0, 0), msgMoveDone); !errors.Is(err, ErrProtocol) {
		t.Errorf("request with 4 bytes left over: %v, want a refusal carrying ErrProtocol", err)
	}
	if n := srv.Stats()["serve_moves_total"]; n != 1 {
		t.Errorf("serve_moves_total = %v, want 1: the refused move ran", n)
	}
}

// TestHelloRefusesOldProtocol: a hello speaking protocol 2, whose
// moves carried a flags word and a value list, is refused with
// ErrProtocol, and the daemon closes the connection.
func TestHelloRefusesOldProtocol(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var w codec.Writer
	w.PutString("old")
	w.PutInt32(2)
	w.PutString("")
	rtyp, rp := rawReq(t, conn, msgHello, 1, w.Bytes())
	if rtyp != msgError || !errors.Is(decodeError(rp), ErrProtocol) {
		t.Fatalf("protocol-2 hello answered %d: %v, want a refusal carrying ErrProtocol", rtyp, decodeError(rp))
	}
	if _, _, _, err := readFrame(conn, maxFrame); err != io.EOF {
		t.Errorf("after the refusal: %v, want the connection closed", err)
	}
}

// TestFramesReadBackThroughOneBufferedReader writes frames back to back
// and reads them through one bufio.Reader over a source that hands out
// one byte, or half the asked-for bytes, per call.
func TestFramesReadBackThroughOneBufferedReader(t *testing.T) {
	payloads := [][]byte{nil, {1}, bytes.Repeat([]byte{0xC3}, 5000), []byte("tail"), {}}
	var wire bytes.Buffer
	for i, p := range payloads {
		if err := writeFrame(&wire, byte(i+1), uint32(7*i), p); err != nil {
			t.Fatal(err)
		}
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	} {
		rd := bufio.NewReader(wrap(bytes.NewReader(wire.Bytes())))
		for i, p := range payloads {
			typ, id, got, err := readFrame(rd, maxFrame)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if typ != byte(i+1) || id != uint32(7*i) || !bytes.Equal(got, p) {
				t.Errorf("%s: frame %d: typ=%d id=%d len=%d", name, i, typ, id, len(got))
			}
		}
		if _, _, _, err := readFrame(rd, maxFrame); err != io.EOF {
			t.Errorf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
}

// TestReconnectDropsBufferedBytes leaves a complete, well-formed
// welcome frame buffered in the client's reader when its connection
// dies, carrying the id the resuming hello will use and a foreign
// token.  The reconnect must read the new connection only: the session
// resumes under its own token, the move lands, and nothing is retried.
func TestReconnectDropsBufferedBytes(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "stale")
	defer c.Close()
	setupCoupling(t, c)

	c.mu.Lock()
	token := c.token
	var w codec.Writer
	w.PutInt32(protoVersion)
	w.PutString("mcserved")
	w.PutString("sp2")
	w.PutString("stale-token")
	w.PutInt64(0)
	var stale bytes.Buffer
	writeFrame(&stale, msgWelcome, c.nextID+1, w.Bytes()) // do takes nextID, the hello the one after
	c.rd = bufio.NewReader(io.MultiReader(&stale, c.conn))
	if _, err := c.rd.Peek(stale.Len()); err != nil {
		t.Fatal(err)
	}
	c.mu.Unlock()
	dropWire(c)

	st, err := c.Move(1, OpMove, 3)
	if err != nil {
		t.Fatalf("move after reconnect: %v", err)
	}
	src, dst := testSpecs()
	want, err := Standalone(src, dst, []ScriptOp{{Kind: OpMove, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash != want[0].Hash {
		t.Errorf("hash %#x, standalone %#x", st.Hash, want[0].Hash)
	}
	c.mu.Lock()
	if c.token != token {
		t.Errorf("session token %q after reconnect, want %q", c.token, token)
	}
	c.mu.Unlock()
	if c.Reconnects() != 1 || c.Retries() != 0 {
		t.Errorf("reconnects=%d retries=%d, want 1 and 0", c.Reconnects(), c.Retries())
	}
}
