package serve

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"metachaos/internal/codec"
	"metachaos/internal/faultsim"
)

// Client is a tenant's connection to the coupling daemon.  Requests
// are synchronous and serialized (one in flight per client); run
// several clients for concurrency, as cmd/mcload does.
//
// The client is fault-tolerant by default: on connection loss it
// redials with jittered exponential backoff and resumes its leased
// session by token, and it transparently resends the in-flight request
// after a reconnect or an ErrRetryable answer.  Resends reuse the
// original request id — the session-scoped sequence number — so the
// server's dedup cache makes every retry idempotent: an op whose reply
// was lost is answered from the cache, never applied twice.
type Client struct {
	mu   sync.Mutex
	opts DialOptions

	conn       net.Conn
	rd         *bufio.Reader // conn's reader, made afresh with every dial
	nextID     uint32
	token      string
	jitterSeed uint64

	established bool   // first hello completed (reconnects count after it)
	dials       uint64 // connection ordinal (chaos stream selector)
	reconnects  int
	retries     int
}

// The client's retry policy: up to dialAttempts tries per operation
// (first try included), the delay before the second dialBackoff and
// doubling per attempt up to dialMaxBackoff, each scaled by a
// deterministic jitter in [0.5, 1.5).
const (
	dialAttempts   = 16
	dialBackoff    = 5 * time.Millisecond
	dialMaxBackoff = 250 * time.Millisecond
)

// DialOptions configures DialWith.
type DialOptions struct {
	// Network ("tcp" or "unix") and Addr locate the daemon.
	Network string
	Addr    string
	// Tenant is the session's tenant name.
	Tenant string
	// Chaos, when set, wraps every connection with seeded wire-fault
	// injection (test harness; see ChaosConfig).
	Chaos *ChaosConfig
}

// Dial connects to a daemon on network ("tcp" or "unix") and address,
// introduces the tenant, and verifies protocol agreement, with the
// retry policy above.
func Dial(network, addr, tenant string) (*Client, error) {
	return DialWith(DialOptions{Network: network, Addr: addr, Tenant: tenant})
}

// DialWith is Dial with wire-fault injection.
func DialWith(o DialOptions) (*Client, error) {
	h := fnv.New64a()
	h.Write([]byte(o.Tenant))
	c := &Client{opts: o, nextID: 1, jitterSeed: h.Sum64()}
	if o.Chaos != nil {
		c.jitterSeed ^= o.Chaos.Seed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			c.backoff(attempt)
		}
		err, fatal := c.reconnectLocked()
		if err == nil {
			c.established = true
			return c, nil
		}
		lastErr = err
		if fatal {
			return nil, err
		}
	}
	return nil, fmt.Errorf("serve: dial gave up after %d attempts: %w", dialAttempts, lastErr)
}

// Reconnects returns how many times the client re-established its
// session after losing the connection.
func (c *Client) Reconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Retries returns how many requests were resent after an ErrRetryable
// answer (a world died mid-op and was respawned).
func (c *Client) Retries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries
}

// backoff sleeps the jittered exponential delay before attempt
// (attempt ≥ 1); the jitter is a pure hash so runs replay exactly.
func (c *Client) backoff(attempt int) {
	d := dialBackoff << uint(attempt-1)
	if d > dialMaxBackoff {
		d = dialMaxBackoff
	}
	c.dials++ // advance the stream so rival attempts never share jitter
	scale := 0.5 + faultsim.Unit(c.jitterSeed, 0, c.dials)
	time.Sleep(time.Duration(float64(d) * scale))
}

// dialRaw opens (and chaos-wraps) one connection.
func (c *Client) dialRaw() (net.Conn, error) {
	conn, err := net.Dial(c.opts.Network, c.opts.Addr)
	if err != nil {
		return nil, err
	}
	ord := c.dials
	c.dials++
	if c.opts.Chaos != nil {
		conn = newChaosConn(conn, *c.opts.Chaos, ord)
	}
	return conn, nil
}

// reconnectLocked dials and performs the hello handshake, resuming the
// leased session when a token is held.  fatal reports a typed refusal
// that retrying cannot fix: ErrSessionLimit, ErrUnknownSession, or
// ErrProtocol for a protocol mismatch on either side.
func (c *Client) reconnectLocked() (err error, fatal bool) {
	conn, err := c.dialRaw()
	if err != nil {
		return err, false
	}
	c.conn, c.rd = conn, bufio.NewReader(conn)
	var w codec.Writer
	w.PutString(c.opts.Tenant)
	w.PutInt32(protoVersion)
	w.PutString(c.token)
	id := c.nextID
	c.nextID++
	rp, appErr, connErr := c.exchange(msgHello, id, w.Bytes(), msgWelcome)
	if connErr != nil {
		conn.Close()
		c.conn = nil
		return connErr, false
	}
	if appErr != nil {
		conn.Close()
		c.conn = nil
		return appErr, true
	}
	r := codec.NewReader(rp)
	if v := r.Int32(); v != protoVersion {
		conn.Close()
		c.conn = nil
		return fmt.Errorf("%w: server speaks protocol %d, client %d", ErrProtocol, v, protoVersion), true
	}
	_ = r.String() // server name
	_ = r.String() // machine name
	c.token = r.String()
	_ = r.Int64() // session lease, ms
	if c.established {
		c.reconnects++
	}
	return nil, false
}

// exchange performs one request/response round trip on the current
// connection.  It separates application errors (a well-formed msgError
// answer: the connection is healthy) from connection errors (anything
// that leaves the stream unusable).
func (c *Client) exchange(typ byte, id uint32, payload []byte, want byte) (rp []byte, appErr, connErr error) {
	if err := writeFrame(c.conn, typ, id, payload); err != nil {
		return nil, nil, err
	}
	rtyp, rid, rpayload, err := readFrame(c.rd, maxFrame)
	if err != nil {
		return nil, nil, err
	}
	if rid != id {
		return nil, nil, fmt.Errorf("%w: response id %d for request %d", ErrProtocol, rid, id)
	}
	if rtyp == msgError {
		return nil, decodeError(rpayload), nil
	}
	if rtyp != want {
		return nil, nil, fmt.Errorf("%w: response type %d, want %d", ErrProtocol, rtyp, want)
	}
	return rpayload, nil, nil
}

// do sends one request and returns the matching response payload,
// reconnecting and resending (same id) across connection loss and
// ErrRetryable answers; other typed errors return immediately.
func (c *Client) do(typ byte, payload []byte, want byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			c.backoff(attempt)
		}
		if c.conn == nil {
			err, fatal := c.reconnectLocked()
			if err != nil {
				lastErr = err
				if fatal {
					return nil, err
				}
				continue
			}
		}
		rp, appErr, connErr := c.exchange(typ, id, payload, want)
		if connErr != nil {
			lastErr = connErr
			c.conn.Close()
			c.conn = nil
			continue
		}
		if appErr != nil {
			if errors.Is(appErr, ErrRetryable) {
				c.retries++
				lastErr = appErr
				continue
			}
			return nil, appErr
		}
		return rp, nil
	}
	return nil, fmt.Errorf("serve: giving up after %d attempts: %w", dialAttempts, lastErr)
}

// RegisterDist declares a distribution under a client-chosen id.
func (c *Client) RegisterDist(id int, spec DistSpec) error {
	var w codec.Writer
	w.PutInt32(int32(id))
	putSpec(&w, &spec)
	_, err := c.do(msgRegisterDist, w.Bytes(), msgOK)
	return err
}

// OpenCoupling couples two registered distributions under a
// client-chosen coupling id.  warm reports that the daemon served the
// schedule from its shared cache (another tenant, or an earlier
// coupling of this one, already built it).
func (c *Client) OpenCoupling(id, srcID, dstID int) (warm bool, elems int, err error) {
	var w codec.Writer
	w.PutInt32(int32(id))
	w.PutInt32(int32(srcID))
	w.PutInt32(int32(dstID))
	payload, err := c.do(msgOpenCoupling, w.Bytes(), msgCouplingReady)
	if err != nil {
		return false, 0, err
	}
	r := codec.NewReader(payload)
	return r.Int32() != 0, int(r.Int64()), nil
}

// Move executes one seed-filled move on an open coupling.
func (c *Client) Move(id, kind int, seed int64) (MoveStats, error) {
	var w codec.Writer
	w.PutInt32(int32(id))
	w.PutInt32(int32(kind))
	w.PutInt64(seed)
	payload, err := c.do(msgMove, w.Bytes(), msgMoveDone)
	if err != nil {
		return MoveStats{}, err
	}
	r := codec.NewReader(payload)
	return MoveStats{Hash: uint64(r.Int64()), Cost: r.Float64()}, nil
}

// CloseCoupling releases an open coupling (the daemon keeps its
// schedule cached for future tenants).
func (c *Client) CloseCoupling(id int) error {
	var w codec.Writer
	w.PutInt32(int32(id))
	_, err := c.do(msgCloseCoupling, w.Bytes(), msgOK)
	return err
}

// Stats fetches the daemon's counters and gauges.
func (c *Client) Stats() (map[string]float64, error) {
	payload, err := c.do(msgStats, nil, msgStatsReply)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(payload)
	n := int(r.Int32())
	out := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		name := r.String()
		out[name] = r.Float64()
	}
	return out, nil
}

// Close says goodbye and drops the connection.  Bye is not retried: if
// the connection is already gone the lease is left to expire instead.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	id := c.nextID
	c.nextID++
	_, appErr, connErr := c.exchange(msgBye, id, nil, msgOK)
	c.conn.Close()
	c.conn = nil
	if appErr != nil {
		return appErr
	}
	return connErr
}
