// Package serve is the Meta-Chaos coupling service: a resident daemon
// (cmd/mcserved) that multiplexes many concurrent tenant sessions onto
// shared simulated worlds.  Client programs connect over a real socket
// (TCP or unix-domain), register distributions, request couplings, and
// stream Move/MoveAdd/MoveReverse traffic; the server executes the
// couplings on long-running mpsim worlds whose per-rank ScheduleCaches
// persist across tenants, so sessions declaring the same distribution
// pair hit warm schedules — the paper's amortization argument (Table
// 2: schedule construction dominates redistribution cost) turned into
// a serving system.
//
// The package also provides the matching Client and a Standalone
// reference executor used by tests and cmd/mcload to verify that
// multiplexed, batched, cache-shared execution is bit-identical to
// running the same couplings alone.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
)

// Frame layout, little-endian (the byte order of internal/codec, which
// encodes every frame payload):
//
//	u32  length of everything after this field (type + id + payload + checksum)
//	u8   message type
//	u32  request id (echoed in the response; sessions may pipeline)
//	...  payload (codec.Writer-encoded, length-5-8 bytes)
//	u64  FNV-1a checksum of the payload
//
// The trailing checksum mirrors the end-to-end trailer the core move
// executor puts on simulated wire payloads: a frame that arrives
// damaged is rejected as ErrProtocol instead of being decoded into
// garbage.

// frameOverhead is the non-payload byte count after the length field.
const frameOverhead = 1 + 4 + 8

// ErrProtocol reports a malformed, corrupted or oversized frame, or a
// request out of protocol (a wrong version, a request before hello).
// It is returned (wrapped with detail) by both endpoints' readers, and
// a daemon refusal carrying it decodes as ErrProtocol on the client.
var ErrProtocol = errors.New("serve: protocol error")

// writeFrame encodes one frame and writes it in one call.
func writeFrame(w io.Writer, typ byte, id uint32, payload []byte) error {
	buf := make([]byte, 4+frameOverhead+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(frameOverhead+len(payload)))
	buf[4] = typ
	binary.LittleEndian.PutUint32(buf[5:], id)
	copy(buf[9:], payload)
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], fnv64a(payload))
	_, err := w.Write(buf)
	return err
}

// readFrame reads and verifies one frame, rejecting payloads larger
// than maxPayload.  io.EOF before the first header byte is a clean
// connection close and is returned unwrapped.
func readFrame(r io.Reader, maxPayload int) (typ byte, id uint32, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return 0, 0, nil, io.EOF
		}
		return 0, 0, nil, fmt.Errorf("%w: reading frame length: %v", ErrProtocol, err)
	}
	total := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if total < frameOverhead {
		return 0, 0, nil, fmt.Errorf("%w: frame of %d bytes is shorter than its own header", ErrProtocol, total)
	}
	if total-frameOverhead > maxPayload {
		return 0, 0, nil, fmt.Errorf("%w: frame payload of %d bytes exceeds the %d-byte limit", ErrProtocol, total-frameOverhead, maxPayload)
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, fmt.Errorf("%w: reading frame body: %v", ErrProtocol, err)
	}
	typ = body[0]
	id = binary.LittleEndian.Uint32(body[1:5])
	payload = body[5 : total-8]
	want := binary.LittleEndian.Uint64(body[total-8:])
	if got := fnv64a(payload); got != want {
		return 0, 0, nil, fmt.Errorf("%w: frame checksum mismatch (got %016x, want %016x)", ErrProtocol, got, want)
	}
	return typ, id, payload, nil
}

// fnv64a is the frame checksum (the same FNV-1a the move executor and
// checkpoint store use for their payload trailers).
func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
