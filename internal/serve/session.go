package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"metachaos/internal/codec"
)

// session is one connection's request loop.  The durable half of a
// tenant lives in tenantState, which survives the connection: a client
// that reconnects and presents its resume token re-attaches to the
// same state, so registered distributions, open couplings and the
// dedup cache all outlive wire faults.
type session struct {
	srv  *Server
	conn net.Conn
	st   *tenantState // nil until Hello
}

// tenantState is one leased tenant session.
type tenantState struct {
	token  string
	tenant string

	// reqMu serializes request execution for this tenant across every
	// connection that ever attaches, and is how lease expiry
	// synchronizes with an in-flight request: the sweeper reclaims a
	// session only while holding it.
	reqMu sync.Mutex

	// Request-path state; reqMu serializes access.
	dists map[int32]*DistSpec
	// cpls additionally takes srv.mu around mutations, because world
	// revival scans it from outside the request path.
	cpls map[int32]*liveCoupling

	// Idempotent-retry dedup: the cached reply of the last successfully
	// applied mutating op, keyed by its request id (the client's
	// session-scoped sequence number).  A retried id is answered from
	// here without re-executing; reqMu serializes access.
	lastReply replyCache

	// Guarded by srv.mu:
	conn     net.Conn  // attached connection; nil while detached
	deadline time.Time // lease expiry instant; zero = never
	gone     bool      // reclaimed (Bye or lease expiry)
}

// replyCache is one cached response frame for dedup.
type replyCache struct {
	valid   bool
	id      uint32
	typ     byte
	payload []byte
}

// liveCoupling is one open coupling of a leased session.
type liveCoupling struct {
	handle int64
	key    worldKey
	src    DistSpec
	dst    DistSpec

	// Guarded by srv.mu: the current runner (revival repoints it), the
	// respawn journal, and the terminal-failure marker.
	r           *runner
	journal     []moveRec
	journalLost bool
	broken      error
}

// moveRec is one journaled move: enough to re-execute it bit-for-bit,
// plus the hash the original execution produced so replay is verified,
// not assumed.
type moveRec struct {
	kind int
	seed int64
	hash uint64
}

// mutatingReq reports whether a request type changes session or world
// state (and therefore joins the dedup cache on success).
func mutatingReq(typ byte) bool {
	switch typ {
	case msgRegisterDist, msgOpenCoupling, msgMove, msgCloseCoupling:
		return true
	}
	return false
}

// serve runs the connection to completion.
func (ss *session) serve() {
	defer ss.srv.dropConn(ss)
	defer ss.conn.Close()
	defer ss.detach()
	rd := bufio.NewReader(ss.conn)
	for {
		typ, id, payload, err := readFrame(rd, maxFrame)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				// Best-effort: a malformed frame gets one explanation
				// before the connection drops.
				writeFrame(ss.conn, msgError, 0, encodeError(err))
			}
			return
		}
		if typ == msgHello {
			rtyp, rpayload, herr := ss.hello(payload)
			if herr != nil {
				rtyp, rpayload = msgError, encodeError(herr)
			}
			if werr := writeFrame(ss.conn, rtyp, id, rpayload); werr != nil || herr != nil {
				return
			}
			continue
		}
		st := ss.st
		if st == nil {
			writeFrame(ss.conn, msgError, id, encodeError(fmt.Errorf("%w: hello must come first", ErrProtocol)))
			return
		}
		st.reqMu.Lock()
		if ss.srv.isGone(st) {
			st.reqMu.Unlock()
			writeFrame(ss.conn, msgError, id, encodeError(fmt.Errorf("%w: session was reclaimed", ErrUnknownSession)))
			return
		}
		ss.srv.touch(st)
		if st.lastReply.valid && id == st.lastReply.id {
			// A retry of the last applied mutating op: answer from the
			// cache, do not re-execute.  This is what makes client-side
			// retry after a lost reply exactly idempotent.
			rtyp, rpayload := st.lastReply.typ, st.lastReply.payload
			st.reqMu.Unlock()
			ss.srv.count("serve_dedup_replies_total", 1)
			if werr := writeFrame(ss.conn, rtyp, id, rpayload); werr != nil {
				return
			}
			continue
		}
		rtyp, rpayload, herr := ss.handle(typ, payload)
		if herr != nil {
			rtyp, rpayload = msgError, encodeError(herr)
		} else if mutatingReq(typ) {
			st.lastReply = replyCache{valid: true, id: id, typ: rtyp, payload: rpayload}
		}
		st.reqMu.Unlock()
		if werr := writeFrame(ss.conn, rtyp, id, rpayload); werr != nil {
			return
		}
		if typ == msgBye && herr == nil {
			ss.srv.finish(st)
			ss.srv.logf("serve: tenant %q disconnected", st.tenant)
			return
		}
	}
}

// detach parks the session state for resume when the connection dies
// without a Bye.
func (ss *session) detach() {
	if ss.st != nil {
		ss.srv.detach(ss.st, ss.conn)
	}
}

// hello establishes or resumes a session on this connection.
func (ss *session) hello(payload []byte) (rtyp byte, rpayload []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			rtyp, rpayload = 0, nil
			err = fmt.Errorf("%w: malformed hello payload: %v", ErrProtocol, v)
		}
	}()
	r := codec.NewReader(payload)
	tenant := r.String()
	version := r.Int32()
	if version != protoVersion {
		return 0, nil, fmt.Errorf("%w: client speaks protocol %d, server %d", ErrProtocol, version, protoVersion)
	}
	resume := r.String()
	if ss.st != nil {
		return 0, nil, fmt.Errorf("%w: session already established on this connection", ErrProtocol)
	}
	var st *tenantState
	if resume != "" {
		st, err = ss.srv.resume(resume, ss.conn)
		if err != nil {
			return 0, nil, err
		}
		ss.srv.logf("serve: tenant %q resumed session %s", st.tenant, st.token)
	} else {
		st, err = ss.srv.newState(tenant, ss.conn)
		if err != nil {
			return 0, nil, err
		}
		ss.srv.logf("serve: tenant %q connected (session %s)", tenant, st.token)
	}
	ss.st = st
	var w codec.Writer
	w.PutInt32(protoVersion)
	w.PutString("mcserved")
	w.PutString("sp2")
	w.PutString(st.token)
	w.PutInt64(int64(ss.srv.opts.Lease / time.Millisecond))
	return msgWelcome, w.Bytes(), nil
}

// handle dispatches one post-hello request and returns the response
// frame; the caller holds st.reqMu.
func (ss *session) handle(typ byte, payload []byte) (rtyp byte, rpayload []byte, err error) {
	defer func() {
		// A torn payload (codec.Reader panics on truncation) is the
		// client's fault, not grounds for killing the daemon.
		if v := recover(); v != nil {
			rtyp, rpayload = 0, nil
			err = fmt.Errorf("%w: malformed request %d payload: %v", ErrProtocol, typ, v)
		}
	}()
	switch typ {
	case msgRegisterDist:
		return ss.registerDist(payload)
	case msgOpenCoupling:
		return ss.openCoupling(payload)
	case msgMove:
		return ss.move(payload)
	case msgCloseCoupling:
		return ss.closeCoupling(payload)
	case msgStats:
		return ss.stats()
	case msgPing:
		// The lease was already refreshed on receipt; nothing else to do.
		return msgOK, nil, nil
	case msgBye:
		return msgOK, nil, nil
	}
	return 0, nil, fmt.Errorf("%w: unknown request type %d", ErrProtocol, typ)
}

func (ss *session) registerDist(payload []byte) (byte, []byte, error) {
	r := codec.NewReader(payload)
	id := r.Int32()
	spec := readSpec(r)
	if err := spec.validate(ss.srv.opts.MaxProcs); err != nil {
		return 0, nil, err
	}
	if spec.elems() > maxElems {
		return 0, nil, fmt.Errorf("%w: %d elements exceeds the %d-element cap", ErrTooLarge, spec.elems(), maxElems)
	}
	if _, exists := ss.st.dists[id]; !exists && len(ss.st.dists) >= maxDists {
		return 0, nil, fmt.Errorf("%w: %d distributions registered", ErrLimit, len(ss.st.dists))
	}
	ss.st.dists[id] = &spec
	return msgOK, nil, nil
}

func (ss *session) openCoupling(payload []byte) (byte, []byte, error) {
	r := codec.NewReader(payload)
	id := r.Int32()
	src, ok := ss.st.dists[r.Int32()]
	if !ok {
		return 0, nil, fmt.Errorf("%w: source distribution not registered", ErrUnknownDist)
	}
	dst, ok := ss.st.dists[r.Int32()]
	if !ok {
		return 0, nil, fmt.Errorf("%w: destination distribution not registered", ErrUnknownDist)
	}
	if err := validatePair(src, dst); err != nil {
		return 0, nil, err
	}
	if _, exists := ss.st.cpls[id]; exists {
		return 0, nil, fmt.Errorf("%w: coupling %d is already open", ErrBadSpec, id)
	}
	if len(ss.st.cpls) >= maxCouplings {
		return 0, nil, fmt.Errorf("%w: %d couplings open", ErrLimit, len(ss.st.cpls))
	}
	key := worldKey{srcProcs: src.Procs, dstProcs: dst.Procs}
	run, err := ss.srv.runnerFor(key)
	if err != nil {
		return 0, nil, err
	}
	o := &op{cmd: cmdOpen, handle: ss.srv.handle(), src: *src, dst: *dst, from: ss.st}
	rep, err := run.do(o)
	if err != nil {
		return 0, nil, ss.retryableOr(key, err)
	}
	lc := &liveCoupling{r: run, handle: o.handle, key: key, src: *src, dst: *dst}
	ss.srv.addCoupling(ss.st, id, lc)
	ss.srv.count("serve_opens_total", 1)
	if rep.warm {
		ss.srv.count("serve_open_warm_total", 1)
	}
	ss.srv.noteEvict(run, rep.evict)
	var w codec.Writer
	warm := int32(0)
	if rep.warm {
		warm = 1
	}
	w.PutInt32(warm)
	w.PutInt64(int64(rep.elems))
	return msgCouplingReady, w.Bytes(), nil
}

// retryableOr converts a world-death failure into ErrRetryable after
// synchronously reviving the world, so the client's resend lands on a
// replayed, consistent state; any other error passes through.
func (ss *session) retryableOr(key worldKey, err error) error {
	if !errors.Is(err, ErrWorldFailed) {
		return err
	}
	if _, rerr := ss.srv.revive(key); rerr != nil {
		return err
	}
	ss.srv.count("serve_retryable_total", 1)
	return fmt.Errorf("%w: resident world %dx%d died mid-op; respawned and replayed",
		ErrRetryable, key.srcProcs, key.dstProcs)
}

func (ss *session) move(payload []byte) (byte, []byte, error) {
	r := codec.NewReader(payload)
	id := r.Int32()
	kind := int(r.Int32())
	seed := r.Int64()
	if r.Remaining() != 0 {
		return 0, nil, fmt.Errorf("%w: move request carries %d bytes past its fixed 16", ErrProtocol, r.Remaining())
	}
	lc, ok := ss.st.cpls[id]
	if !ok {
		return 0, nil, fmt.Errorf("%w: coupling %d is not open", ErrUnknownCoupling, id)
	}
	if br := ss.srv.brokenOf(lc); br != nil {
		return 0, nil, br
	}
	if kind != OpMove && kind != OpMoveAdd && kind != OpMoveReverse {
		return 0, nil, fmt.Errorf("%w: move kind %d", ErrBadSpec, kind)
	}
	if !ss.srv.tryAcquire() {
		return 0, nil, fmt.Errorf("%w: %d moves in flight", ErrBackpressure, ss.srv.opts.MaxInflight)
	}
	defer ss.srv.release()
	run := ss.srv.runnerOf(lc)
	rep, err := run.do(&op{cmd: cmdMove, handle: lc.handle, moveKind: kind, seed: seed, from: ss.st})
	if err != nil {
		return 0, nil, ss.retryableOr(lc.key, err)
	}
	ss.srv.journal(lc, moveRec{kind: kind, seed: seed, hash: rep.hash})
	ss.srv.count("serve_moves_total", 1)
	ss.srv.noteEvict(run, rep.evict)
	var w codec.Writer
	w.PutInt64(int64(rep.hash))
	w.PutFloat64(rep.cost)
	return msgMoveDone, w.Bytes(), nil
}

func (ss *session) closeCoupling(payload []byte) (byte, []byte, error) {
	id := codec.NewReader(payload).Int32()
	lc, ok := ss.st.cpls[id]
	if !ok {
		return 0, nil, fmt.Errorf("%w: coupling %d is not open", ErrUnknownCoupling, id)
	}
	// Unpublish before the world-side close so a concurrent revival
	// never replays a coupling the tenant is discarding; a close on an
	// already-dead world succeeds trivially (the handle died with it).
	ss.srv.removeCoupling(ss.st, id)
	if _, err := ss.srv.runnerOf(lc).do(&op{cmd: cmdClose, handle: lc.handle, from: ss.st}); err != nil &&
		!errors.Is(err, ErrWorldFailed) && !errors.Is(err, ErrShuttingDown) {
		return 0, nil, err
	}
	return msgOK, nil, nil
}

func (ss *session) stats() (byte, []byte, error) {
	stats := ss.srv.Stats()
	var w codec.Writer
	w.PutInt32(int32(len(stats)))
	for _, name := range sortedKeys(stats) {
		w.PutString(name)
		w.PutFloat64(stats[name])
	}
	return msgStatsReply, w.Bytes(), nil
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
