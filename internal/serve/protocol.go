package serve

import (
	"errors"
	"fmt"

	"metachaos/internal/codec"
	"metachaos/internal/core"
)

// protoVersion is the wire protocol generation; Hello/Welcome agree on
// it before anything else flows.  Version 2 added session resume
// tokens, leases, ping, and the retryable error class; version 3 made
// a move fixed-size: a seed in, a hash and a cost out.
const protoVersion = 3

// Message types.  Requests flow client → server; every request is
// answered by exactly one response frame carrying the same request id
// (msgError for failures).
const (
	msgHello         byte = 1  // c→s: tenant name, protocol version
	msgWelcome       byte = 2  // s→c: version, server name, machine name
	msgRegisterDist  byte = 3  // c→s: dist id, DistSpec
	msgOK            byte = 4  // s→c: generic ack
	msgOpenCoupling  byte = 5  // c→s: coupling id, src dist id, dst dist id
	msgCouplingReady byte = 6  // s→c: warm flag, element count
	msgMove          byte = 7  // c→s: coupling id, kind, seed
	msgMoveDone      byte = 8  // s→c: result hash, virtual cost
	msgCloseCoupling byte = 9  // c→s: coupling id
	msgStats         byte = 10 // c→s: empty
	msgStatsReply    byte = 11 // s→c: name/value pairs
	msgBye           byte = 12 // c→s: empty; server acks and closes
	msgError         byte = 13 // s→c: code, detail
	msgPing          byte = 14 // c→s: empty; refreshes the session lease
)

// Move kinds carried in msgMove.
const (
	OpMove        = 0 // copy source → destination
	OpMoveAdd     = 1 // accumulate source into destination
	OpMoveReverse = 2 // copy destination → source through the same schedule
)

// Error codes carried in msgError, mapped to the typed sentinels below
// so clients can errors.Is against them.
const (
	codeBackpressure = 1
	codeSessionLimit = 2
	codeUnknownDist  = 3
	codeUnknownCpl   = 4
	codeBadSpec      = 5
	codeTooLarge     = 6
	codeShutdown     = 7
	codeWorldFailed  = 8
	codeLimit        = 9
	codeRetryable    = 10
	codeUnknownSess  = 11
	codeProtocol     = 12
)

// Typed service errors.  The server picks the code; Client.do wraps
// the matching sentinel around the server's detail string, so
// errors.Is(err, serve.ErrBackpressure) works across the socket.
var (
	// ErrBackpressure is admission control declining a move because the
	// global in-flight limit is reached; the session is still healthy
	// and the client should retry after draining.
	ErrBackpressure = errors.New("serve: too many in-flight moves (backpressure)")
	// ErrSessionLimit is the accept loop declining a connection because
	// MaxSessions tenants are already connected.
	ErrSessionLimit = errors.New("serve: session limit reached")
	// ErrUnknownDist names a distribution id the session never registered.
	ErrUnknownDist = errors.New("serve: unknown distribution")
	// ErrUnknownCoupling names a coupling id the session never opened.
	ErrUnknownCoupling = errors.New("serve: unknown coupling")
	// ErrBadSpec rejects an invalid or unsupported distribution pair.
	ErrBadSpec = errors.New("serve: invalid distribution spec")
	// ErrTooLarge rejects a distribution or world beyond the configured
	// caps.
	ErrTooLarge = errors.New("serve: request exceeds configured limits")
	// ErrShuttingDown reports a request racing server shutdown.
	ErrShuttingDown = errors.New("serve: server is shutting down")
	// ErrWorldFailed reports that the resident world executing the
	// session's couplings died (a simulation panic); its couplings are
	// gone, though the session may open new ones on a fresh world.
	ErrWorldFailed = errors.New("serve: resident world failed")
	// ErrLimit rejects a session exceeding its per-session registration
	// or coupling budget.
	ErrLimit = errors.New("serve: per-session limit reached")
	// ErrRetryable reports an op that was in flight when a resident
	// world died: the server has respawned the world and replayed the
	// session's journal, so resending the identical request (same
	// session, same sequence number) is safe and will either execute
	// once or be answered from the dedup cache.  Client.do retries it
	// transparently.
	ErrRetryable = errors.New("serve: in-flight op lost to a world failure; safe to retry")
	// ErrUnknownSession rejects a resume token the server does not
	// know — never issued, already said Bye, or reclaimed by lease
	// expiry.  Resuming is impossible; the client must start fresh.
	ErrUnknownSession = errors.New("serve: unknown or expired session")
)

var codeToErr = map[int32]error{
	codeBackpressure: ErrBackpressure,
	codeSessionLimit: ErrSessionLimit,
	codeUnknownDist:  ErrUnknownDist,
	codeUnknownCpl:   ErrUnknownCoupling,
	codeBadSpec:      ErrBadSpec,
	codeTooLarge:     ErrTooLarge,
	codeShutdown:     ErrShuttingDown,
	codeWorldFailed:  ErrWorldFailed,
	codeLimit:        ErrLimit,
	codeRetryable:    ErrRetryable,
	codeUnknownSess:  ErrUnknownSession,
	codeProtocol:     ErrProtocol,
}

var errToCode = map[error]int32{
	ErrBackpressure:    codeBackpressure,
	ErrSessionLimit:    codeSessionLimit,
	ErrUnknownDist:     codeUnknownDist,
	ErrUnknownCoupling: codeUnknownCpl,
	ErrBadSpec:         codeBadSpec,
	ErrTooLarge:        codeTooLarge,
	ErrShuttingDown:    codeShutdown,
	ErrWorldFailed:     codeWorldFailed,
	ErrLimit:           codeLimit,
	ErrRetryable:       codeRetryable,
	ErrUnknownSession:  codeUnknownSess,
	ErrProtocol:        codeProtocol,
}

// sentinelOf maps a server-side error to its wire code, defaulting to
// codeBadSpec for unclassified validation failures.
func sentinelOf(err error) int32 {
	for sentinel, code := range errToCode {
		if errors.Is(err, sentinel) {
			return code
		}
	}
	return codeBadSpec
}

// DistSpec declares one side of a coupling: a library, a layout from
// the service's closed vocabulary, a global shape, and the process
// count of the simulated program that owns the data.  Two sessions
// producing identical specs share schedules (and the resident world,
// when their pair shapes match).
type DistSpec struct {
	// Library is "hpfrt", "mbparti" or "pcxxrt".
	Library string
	// Layout is the distribution recipe:
	//   hpfrt:   "blockvec" (1-D BLOCK), "rowblock" (2-D rows blocked)
	//   mbparti: "blockvec", "block2d" (2-D BLOCK×BLOCK)
	//   pcxxrt:  "roundrobin" (collection dealt element-by-element)
	Layout string
	// Shape is the global element shape: 1 dim for blockvec/roundrobin,
	// 2 dims for rowblock/block2d.
	Shape []int
	// Procs is the owning program's process count.
	Procs int
	// ElemWords is the scalar words per element, pcxxrt only (the other
	// layouts move 1-word float64 elements); 0 means 1.
	ElemWords int
}

// elems returns the global element count.
func (d *DistSpec) elems() int {
	n := 1
	for _, s := range d.Shape {
		n *= s
	}
	return n
}

// words returns the per-element scalar count.
func (d *DistSpec) words() int {
	if d.ElemWords <= 0 {
		return 1
	}
	return d.ElemWords
}

// elem returns the element type the spec moves.
func (d *DistSpec) elem() core.ElemType {
	return core.Float64Elems(d.words())
}

// Key is the spec's canonical string, the building block of the
// cross-tenant schedule-cache key: identical declarations — library,
// layout, shape, process count, element width — produce identical
// keys on every rank of the resident world.
func (d *DistSpec) Key() string {
	return fmt.Sprintf("%s:%s:%v/p%d/w%d", d.Library, d.Layout, d.Shape, d.Procs, d.words())
}

// validate checks the spec against the service vocabulary and the
// given world-size cap.
func (d *DistSpec) validate(maxProcs int) error {
	if d.Procs < 1 {
		return fmt.Errorf("%w: %d procs", ErrBadSpec, d.Procs)
	}
	if maxProcs > 0 && d.Procs > maxProcs {
		return fmt.Errorf("%w: %d procs exceeds the %d-proc world cap", ErrTooLarge, d.Procs, maxProcs)
	}
	for _, s := range d.Shape {
		if s < 1 {
			return fmt.Errorf("%w: shape %v has a non-positive extent", ErrBadSpec, d.Shape)
		}
	}
	dims := map[string]int{"blockvec": 1, "rowblock": 2, "block2d": 2, "roundrobin": 1}
	want, ok := dims[d.Layout]
	if !ok {
		return fmt.Errorf("%w: unknown layout %q", ErrBadSpec, d.Layout)
	}
	if len(d.Shape) != want {
		return fmt.Errorf("%w: layout %q wants a %d-D shape, got %v", ErrBadSpec, d.Layout, want, d.Shape)
	}
	switch d.Library {
	case "hpfrt":
		if d.Layout != "blockvec" && d.Layout != "rowblock" {
			return fmt.Errorf("%w: hpfrt supports blockvec and rowblock, not %q", ErrBadSpec, d.Layout)
		}
	case "mbparti":
		if d.Layout != "blockvec" && d.Layout != "block2d" {
			return fmt.Errorf("%w: mbparti supports blockvec and block2d, not %q", ErrBadSpec, d.Layout)
		}
	case "pcxxrt":
		if d.Layout != "roundrobin" {
			return fmt.Errorf("%w: pcxxrt supports roundrobin, not %q", ErrBadSpec, d.Layout)
		}
	default:
		return fmt.Errorf("%w: unknown library %q", ErrBadSpec, d.Library)
	}
	if d.ElemWords != 0 && d.Library != "pcxxrt" {
		return fmt.Errorf("%w: multi-word elements are a pcxxrt layout feature", ErrBadSpec)
	}
	if d.ElemWords < 0 || d.ElemWords > 16 {
		return fmt.Errorf("%w: %d words per element", ErrBadSpec, d.ElemWords)
	}
	if d.elems() < d.Procs {
		return fmt.Errorf("%w: %d elements over %d procs leaves empty ranks", ErrBadSpec, d.elems(), d.Procs)
	}
	return nil
}

// putSpec appends the spec's wire form.
func putSpec(w *codec.Writer, d *DistSpec) {
	w.PutString(d.Library)
	w.PutString(d.Layout)
	w.PutInts(d.Shape)
	w.PutInt32(int32(d.Procs))
	w.PutInt32(int32(d.ElemWords))
}

// readSpec decodes a spec written by putSpec.
func readSpec(r *codec.Reader) DistSpec {
	return DistSpec{
		Library:   r.String(),
		Layout:    r.String(),
		Shape:     r.Ints(),
		Procs:     int(r.Int32()),
		ElemWords: int(r.Int32()),
	}
}

// validatePair checks that two registered specs can be coupled: the
// linearizations must have the same element count and element type.
func validatePair(src, dst *DistSpec) error {
	if src.elems() != dst.elems() {
		return fmt.Errorf("%w: source has %d elements, destination %d — linearizations must match",
			ErrBadSpec, src.elems(), dst.elems())
	}
	if src.elem() != dst.elem() {
		return fmt.Errorf("%w: source moves %v elements, destination %v — element types must match",
			ErrBadSpec, src.elem(), dst.elem())
	}
	return nil
}

// PairKey is the cross-tenant schedule-cache key for a coupling: the
// two canonical spec keys.  The full cache key the resident world uses
// is PairKey + element type (ScheduleCache appends it).
func PairKey(src, dst *DistSpec) string {
	return src.Key() + ">" + dst.Key()
}

// MoveStats is what one executed move reports back to the client.
type MoveStats struct {
	// Hash is the landing side's post-move content digest,
	// Σ W(position·words + word) · value mod 2^64 (model.go): each
	// landing rank digests its own share and the leader sums them.  It
	// is comparable bit for bit against a Model or a Standalone run of
	// the same coupling sequence.
	Hash uint64
	// Cost is the virtual-time seconds the move took on the resident
	// world's rank 0 (schedule reuse makes later moves cheaper).
	Cost float64
}

// decodeError turns a msgError payload into a typed, detailed error.
func decodeError(payload []byte) error {
	r := codec.NewReader(payload)
	code := r.Int32()
	detail := r.String()
	if sentinel, ok := codeToErr[code]; ok {
		return fmt.Errorf("%w: %s", sentinel, detail)
	}
	return fmt.Errorf("%w: server error %d: %s", ErrProtocol, code, detail)
}

// encodeError builds a msgError payload from a server-side error.
func encodeError(err error) []byte {
	var w codec.Writer
	w.PutInt32(sentinelOf(err))
	w.PutString(err.Error())
	return w.Bytes()
}
