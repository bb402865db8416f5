package serve

import "fmt"

// ScriptOp is one move in a coupling's replayable op sequence.
type ScriptOp struct {
	// Kind is OpMove, OpMoveAdd or OpMoveReverse.
	Kind int
	// Seed drives the deterministic fill of the sending side.
	Seed int64
}

// Standalone executes one tenant's coupling script on a private,
// freshly built world — the same resident-world machinery with no
// server, no other tenants and no batching — and returns one MoveStats
// per op.  Because daemon execution broadcasts the identical command
// stream into an identically shaped world, the hashes here are the
// bit-identical reference for what a tenant must observe through
// mcserved, whatever multiplexing happened around it.  It runs the
// daemon's own execMove, so it checks the multiplexing, not the
// result path: the serve tests check what lands against a
// position-indexed model that shares none of that code.
func Standalone(src, dst DistSpec, ops []ScriptOp) ([]MoveStats, error) {
	if err := src.validate(0); err != nil {
		return nil, fmt.Errorf("source: %w", err)
	}
	if err := dst.validate(0); err != nil {
		return nil, fmt.Errorf("destination: %w", err)
	}
	if err := validatePair(&src, &dst); err != nil {
		return nil, err
	}
	r := newRunner(runnerConfig{key: worldKey{srcProcs: src.Procs, dstProcs: dst.Procs}, maxBatch: 1})
	defer r.stop()
	const handle = 1
	if _, err := r.do(&op{cmd: cmdOpen, handle: handle, src: src, dst: dst}); err != nil {
		return nil, err
	}
	out := make([]MoveStats, 0, len(ops))
	for _, so := range ops {
		rep, err := r.do(&op{cmd: cmdMove, handle: handle, moveKind: so.Kind, seed: so.Seed})
		if err != nil {
			return nil, err
		}
		out = append(out, MoveStats{Hash: rep.hash, Cost: rep.cost})
	}
	if _, err := r.do(&op{cmd: cmdClose, handle: handle}); err != nil {
		return nil, err
	}
	return out, nil
}
