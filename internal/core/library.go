package core

import (
	"fmt"
	"sort"

	"metachaos/internal/mpsim"
)

// Ctx is the execution context a library method runs in: the calling
// process and the communicator of the program that owns the distributed
// object.  Library inquiry functions that consult distributed state
// (such as Chaos's translation table) are collective over Ctx.Comm.
type Ctx struct {
	P    *mpsim.Proc
	Comm *mpsim.Comm
}

// NewCtx builds a context for a program communicator.
func NewCtx(p *mpsim.Proc, comm *mpsim.Comm) *Ctx {
	return &Ctx{P: p, Comm: comm}
}

// LocRun is the unit every inquiry function answers in: the set
// positions [Pos, Pos+Count) live on program rank Proc at the element
// offsets Off, Off+Stride, ... of that process's local storage.  A
// regular section answers with one run per row fragment; a pointwise
// distribution answers with runs of one element, whose Stride is
// ignored.
type LocRun struct {
	Pos    int32
	Proc   int32
	Off    int32
	Stride int32
	Count  int32
}

// End returns the position one past the run's last.
func (r LocRun) End() int32 { return r.Pos + r.Count }

// PosRange is the half-open interval [Lo, Hi) of set positions.
type PosRange struct{ Lo, Hi int32 }

// RangesLen returns the number of positions in the intervals.
func RangesLen(at []PosRange) int {
	n := 0
	for _, iv := range at {
		n += int(iv.Hi - iv.Lo)
	}
	return n
}

// AppendLoc extends runs with the location of position pos, which must
// follow every position already present.  It fuses the location into
// the last run when it lies on the same process at the next position
// and continues the run's offset progression, so libraries that
// dereference element by element (a translation table, a round-robin
// deal) still hand over runs wherever their data happens to be
// regular, and pay one struct store where it is not.  A library
// appending to a caller's out passes out[len(out):] so that nothing
// fuses into the caller's own runs.
func AppendLoc(runs []LocRun, pos, proc, off int32) []LocRun {
	if n := len(runs); n > 0 {
		last := &runs[n-1]
		if last.Proc == proc && pos == last.Pos+last.Count {
			switch {
			case last.Count == 1:
				last.Stride = off - last.Off
				last.Count = 2
				return runs
			case off == last.Off+last.Count*last.Stride:
				last.Count++
				return runs
			}
		}
	}
	return append(runs, LocRun{Pos: pos, Proc: proc, Off: off, Count: 1})
}

// Library is the set of inquiry functions a data-parallel runtime
// library exports so Meta-Chaos can interoperate with it — the paper's
// framework-based approach.  The functions let Meta-Chaos dereference
// elements of a SetOfRegions (find the owning process and local
// address of each element, in linearization order) without knowing
// anything about how the library distributes data.
//
// Every answer is a list of LocRuns sorted by Pos, pairwise disjoint,
// and covering exactly the positions asked for.  Runs need not be
// maximal: schedules and wire bytes are the same however an answer is
// cut into runs, so a library emits whatever its arithmetic yields.
// The virtual-time cost of an inquiry is charged per element, not per
// run.
//
// DerefRange, DerefAt and OwnedPositions are collective over the
// owning program: every process of Ctx.Comm must call them together
// (each with its own arguments), because a library's distribution
// descriptor may itself be distributed.
//
// Each appends its answer to out and returns the extended slice, as
// append does.  The caller owns out: the library leaves out's existing
// elements as they are, keeps no reference to it after returning, and
// allocates only when out lacks the capacity.  The schedule builders
// keep their answer buffers on the Coupling, so a rebuild reuses them.
type Library interface {
	// Name returns the library's registry name.
	Name() string

	// DerefRange appends the locations of set positions [lo, hi).
	DerefRange(ctx *Ctx, o DistObject, set *SetOfRegions, lo, hi int, out []LocRun) []LocRun

	// DerefAt appends the locations of the positions in the given
	// intervals, which must be sorted ascending and disjoint.
	DerefAt(ctx *Ctx, o DistObject, set *SetOfRegions, at []PosRange, out []LocRun) []LocRun

	// OwnedPositions appends the locations of every position of the set
	// whose element the calling process owns (Proc is the caller's rank
	// throughout).
	OwnedPositions(ctx *Ctx, o DistObject, set *SetOfRegions, out []LocRun) []LocRun
}

// LocalBounder is the optional extension by which a library reports,
// from the descriptor alone, the largest number of elements (ghost
// margins included) any one process stores for o.  Offsets are int32
// end to end; ComputeSchedule uses the bound to refuse an object whose
// offsets would wrap, descriptor-only views included.
// Libraries without it are bounded by the caller's own LocalMem.
type LocalBounder interface {
	MaxLocalElems(o DistObject) int
}

// DescriptorCodec is the optional extension a library implements to
// support Meta-Chaos's duplication schedule method between separate
// programs: serializing the distribution descriptor so the peer
// program can dereference locally.
type DescriptorCodec interface {
	// EncodeDescriptor serializes o's distribution metadata.  It is
	// collective over ctx.Comm (a distributed descriptor such as a
	// Chaos translation table must be assembled from every process);
	// the returned data is only meaningful on program rank 0.  compact
	// reports whether the descriptor is small (regular distribution
	// parameters) as opposed to element-granularity state such as a
	// Chaos translation table, which the paper notes makes duplication
	// impractical between programs.
	EncodeDescriptor(ctx *Ctx, o DistObject) (data []byte, compact bool)
	// DecodeDescriptor reconstructs a descriptor-only remote view whose
	// Deref* methods work without communication.
	DecodeDescriptor(data []byte) (DistObject, error)
}

// registry maps library names to implementations so descriptor
// messages can name their codec.
var registry = map[string]Library{}

// RegisterLibrary adds a library to the global registry.  Libraries
// register themselves from package init functions; re-registering a
// name panics.
func RegisterLibrary(lib Library) {
	if lib == nil || lib.Name() == "" {
		panic("core: RegisterLibrary with nil or unnamed library")
	}
	if _, dup := registry[lib.Name()]; dup {
		panic(fmt.Sprintf("core: library %q registered twice", lib.Name()))
	}
	registry[lib.Name()] = lib
}

// LookupLibrary finds a registered library by name.
func LookupLibrary(name string) (Library, error) {
	lib, ok := registry[name]
	if !ok {
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("core: no library %q registered (have %v)", name, names)
	}
	return lib, nil
}
