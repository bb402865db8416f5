package serve

import (
	"errors"
	"net"
	"time"

	"metachaos/internal/faultsim"
)

// Wire-level chaos: a net.Conn wrapper that injects the failures a
// real network inflicts on the service protocol — connections cut
// between frames, writes torn mid-frame, reads abandoned after the
// request was delivered (so the op applied but the reply is lost,
// exercising the dedup path), and stalls.  Every decision is a pure
// hash of (seed, connection ordinal, I/O ordinal) via faultsim's
// splitmix mixer, so a failing run replays exactly from its seed.

// ChaosConfig tunes the fault mix; the zero value injects nothing.
// Each I/O draws every fault that applies to it independently, at Rate:
//
//   - drop: a write closes the connection instead (the frame is never
//     sent);
//   - truncate: a write sends a strict prefix of the frame and then
//     closes the connection (the peer sees a torn frame);
//   - read abort: a read closes the connection instead — the request
//     usually reached the server, so its reply is lost after the op
//     applied;
//   - stall: the I/O sleeps chaosStall (real time) before it proceeds.
type ChaosConfig struct {
	// Seed drives every decision deterministically.
	Seed uint64
	// Rate is each fault's per-I/O probability, in [0, 1].
	Rate float64
}

// chaosStall is the injected delay of a stall.
const chaosStall = time.Millisecond

// errChaos is the injected fault surfaced to the caller; the client
// treats it like any other connection failure (reconnect + retry).
var errChaos = errors.New("serve: chaos-injected connection fault")

// Per-I/O decision streams (the faultsim stream argument).
const (
	chaosStreamWrite = 1
	chaosStreamRead  = 2
)

// chaosConn wraps a connection with seeded fault injection.  It is
// used from one goroutine (Client serializes I/O), so the counters
// need no locking.
type chaosConn struct {
	net.Conn
	cfg     ChaosConfig
	ordinal uint64 // which connection of the client's lifetime this is
	writes  uint64
	reads   uint64
}

// newChaosConn wraps conn; ordinal distinguishes successive
// connections of one client so each redial sees fresh decisions.
func newChaosConn(conn net.Conn, cfg ChaosConfig, ordinal uint64) net.Conn {
	return &chaosConn{Conn: conn, cfg: cfg, ordinal: ordinal}
}

// roll returns the deterministic unit variate for this I/O.
func (c *chaosConn) roll(stream, k, salt uint64) float64 {
	return faultsim.Unit(c.cfg.Seed+salt, c.ordinal*8+stream, k)
}

func (c *chaosConn) Write(b []byte) (int, error) {
	k := c.writes
	c.writes++
	rate := c.cfg.Rate
	if c.roll(chaosStreamWrite, k, 101) < rate {
		time.Sleep(chaosStall)
	}
	if c.roll(chaosStreamWrite, k, 211) < rate {
		c.Conn.Close()
		return 0, errChaos
	}
	if len(b) > 1 && c.roll(chaosStreamWrite, k, 307) < rate {
		// A torn write must kill the connection: leaving it open would
		// desynchronize framing for every later request.
		cut := 1 + int(c.roll(chaosStreamWrite, k, 401)*float64(len(b)-1))
		n, _ := c.Conn.Write(b[:cut])
		c.Conn.Close()
		return n, errChaos
	}
	return c.Conn.Write(b)
}

func (c *chaosConn) Read(b []byte) (int, error) {
	k := c.reads
	c.reads++
	rate := c.cfg.Rate
	if c.roll(chaosStreamRead, k, 101) < rate {
		time.Sleep(chaosStall)
	}
	if c.roll(chaosStreamRead, k, 211) < rate {
		c.Conn.Close()
		return 0, errChaos
	}
	return c.Conn.Read(b)
}
