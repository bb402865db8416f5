package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
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
