// Package metachaos is a Go reproduction of Meta-Chaos, the framework
// of Edjlali, Sussman and Saltz ("Interoperability of Data Parallel
// Runtime Libraries", IPPS 1997) that lets specialized data-parallel
// runtime libraries exchange distributed data — inside one program or
// between separate programs — through a virtual linearization of
// library-specific Regions.
//
// The package re-exports the stable public surface of the repository:
//
//   - the simulated message-passing machine (ranks, communicators,
//     collectives, virtual-time cost models) that stands in for
//     MPI/PVM/MPL,
//   - the Meta-Chaos core: Regions, SetOfRegions, schedule computation
//     with the cooperation and duplication methods, and the symmetric
//     data-move executor, and
//   - the four data-parallel libraries bound to the framework:
//     Multiblock Parti (regular multiblock arrays), CHAOS (irregular
//     arrays), the HPF runtime (BLOCK/CYCLIC arrays) and the pC++
//     runtime (distributed element collections).
//
// A minimal exchange between two libraries in one program:
//
//	metachaos.RunSPMD(metachaos.SP2(), 4, func(p *metachaos.Proc) {
//		ctx := metachaos.NewCtx(p, p.Comm())
//		src := metachaos.NewHPFArray(metachaos.BlockVector(100, 4), p.Rank())
//		dst, _ := metachaos.NewChaosArray(ctx, myIndices)
//		sched, _ := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
//			&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
//				Set: metachaos.NewSetOfRegions(gidx.FullSection(gidx.Shape{100})), Ctx: ctx},
//			&metachaos.Spec{Lib: metachaos.Chaos, Obj: dst,
//				Set: metachaos.NewSetOfRegions(region), Ctx: ctx},
//			metachaos.Cooperation)
//		sched.Move(src, dst)
//	})
//
// See the examples directory for complete programs and DESIGN.md for
// the system inventory.
package metachaos

import (
	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/lparx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
	"metachaos/internal/pcxxrt"
)

// Simulated machine: processes, communicators, cost models.
type (
	// Proc is one simulated process.
	Proc = mpsim.Proc
	// Comm is a communicator over a group of processes.
	Comm = mpsim.Comm
	// Machine is a hardware cost model.
	Machine = mpsim.Machine
	// Stats is the observable outcome of a simulated run.
	Stats = mpsim.Stats
	// RankStats counts one process's traffic.
	RankStats = mpsim.RankStats
	// Config describes a multi-program run.
	Config = mpsim.Config
	// ProgramSpec describes one program of a run.
	ProgramSpec = mpsim.ProgramSpec
)

// Virtual-time observability (see internal/obs, cmd/mctrace and the
// observability section of DESIGN.md).  Attach a Tracer through
// Config.Obs; a nil Tracer keeps the whole layer off at the cost of a
// pointer comparison per instrumented point.
type (
	// Tracer records spans, instants and metrics on the virtual clock.
	Tracer = obs.Tracer
	// PhaseTotal aggregates the spans sharing one name.
	PhaseTotal = obs.PhaseTotal
	// MovePhases is one move's per-phase virtual-time breakdown,
	// reported always (tracer or not) in MoveResult.Phases.
	MovePhases = core.MovePhases
)

// NewTracer returns an empty, enabled tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// Run executes a configured set of programs on the simulated machine.
func Run(cfg Config) *Stats { return mpsim.Run(cfg) }

// RunSPMD runs a single n-process program.
func RunSPMD(m *Machine, n int, body func(p *Proc)) *Stats {
	return mpsim.RunSPMD(m, n, body)
}

// Machine profiles.
var (
	// SP2 models the paper's 16-node IBM SP2.
	SP2 = mpsim.SP2
	// AlphaFarmATM models the paper's DEC Alpha farm on an ATM switch.
	AlphaFarmATM = mpsim.AlphaFarmATM
	// Ideal is a zero-cost machine for correctness work.
	Ideal = mpsim.Ideal
)

// Meta-Chaos core types.
type (
	// Region describes a group of elements in library-specific terms.
	Region = core.Region
	// SetOfRegions is an ordered group of Regions; its linearization
	// defines the transfer mapping.
	SetOfRegions = core.SetOfRegions
	// Schedule is a computed communication schedule.
	Schedule = core.Schedule
	// Spec names one side of a transfer.
	Spec = core.Spec
	// Ctx is a library execution context.
	Ctx = core.Ctx
	// Coupling pairs the programs of a transfer.
	Coupling = core.Coupling
	// Method selects the schedule computation algorithm.
	Method = core.Method
	// MoveResult reports a move's element count and, under the
	// reliable transport, its per-peer retransmission costs and any
	// peers that failed.
	MoveResult = core.MoveResult
	// LibraryIface is the inquiry interface a data-parallel library
	// implements to join the framework.
	LibraryIface = core.Library
	// DistObject is a handle on a distributed data structure.
	DistObject = core.DistObject
)

// Schedule computation methods.
const (
	Cooperation = core.Cooperation
	Duplication = core.Duplication
)

// OpSum is the sum reduction of communicator collectives.
const OpSum = mpsim.OpSum

// Core constructors and operations.
var (
	// NewSetOfRegions gathers regions into an ordered set.
	NewSetOfRegions = core.NewSetOfRegions
	// NewCtx builds a library execution context.
	NewCtx = core.NewCtx
	// SingleProgram couples a program with itself for intra-program
	// transfers.
	SingleProgram = core.SingleProgram
	// CoupleByName couples two named programs of the world.
	CoupleByName = core.CoupleByName
	// ComputeSchedule builds a communication schedule.
	ComputeSchedule = core.ComputeSchedule
	// LookupLibrary finds a registered library.
	LookupLibrary = core.LookupLibrary
)

// The four bound data-parallel libraries.
var (
	// MBParti distributes regular multiblock arrays with ghost halos.
	MBParti = mbparti.Library
	// Chaos distributes irregular arrays through translation tables.
	Chaos = chaoslib.Library
	// HPF is the High Performance Fortran runtime analogue.
	HPF = hpfrt.Library
	// PCXX is the pC++/Tulip distributed-collection analogue.
	PCXX = pcxxrt.Library
	// LPARX is the LPARX/AMR irregular-block analogue (a fifth
	// library, beyond the paper's four, exercising extensibility).
	LPARX = lparx.Library
)

// Library object types and constructors.
type (
	// MBPartiArray is a Multiblock Parti distributed array.
	MBPartiArray = mbparti.Array
	// ChaosArray is a CHAOS irregularly distributed array.
	ChaosArray = chaoslib.Array
	// HPFArray is an HPF distributed array.
	HPFArray = hpfrt.Array
	// PCXXCollection is a pC++ distributed collection.
	PCXXCollection = pcxxrt.Collection
	// Dist is a regular distribution descriptor.
	Dist = distarray.Dist
	// Section is a regular array section (lo:hi:step per dimension),
	// the Region type of MBParti and HPF.
	Section = gidx.Section
	// IndexRegion is CHAOS's Region type: a list of global indices.
	IndexRegion = chaoslib.IndexRegion
	// RangeRegion is pC++'s Region type: a strided index range.
	RangeRegion = pcxxrt.RangeRegion
	// BoxRegion is LPARX's Region type: a rectangular box.
	BoxRegion = lparx.BoxRegion
	// LPARXGrid is a patch-decomposed LPARX grid.
	LPARXGrid = lparx.Grid
	// LPARXPatch is one rectangular patch of a decomposition.
	LPARXPatch = lparx.Patch
	// Shape is a dense global array shape.
	Shape = gidx.Shape
)

var (
	// NewMBPartiArray allocates a Multiblock Parti array tile.
	NewMBPartiArray = mbparti.NewArray
	// NewChaosArray builds an irregular array and its translation
	// table (collective).
	NewChaosArray = chaoslib.NewArray
	// NewAlignedChaosArray builds an array sharing another's
	// distribution.
	NewAlignedChaosArray = chaoslib.NewAligned
	// NewHPFArray allocates an HPF array tile.
	NewHPFArray = hpfrt.NewArray
	// NewPCXXCollection allocates a collection share.
	NewPCXXCollection = pcxxrt.NewCollection
	// Block2D builds a 2-D (BLOCK, BLOCK) distribution.
	Block2D = distarray.MustBlock2D
	// BlockVector builds a 1-D BLOCK distribution.
	BlockVector = hpfrt.BlockVector
	// RowBlockMatrix builds the row-block matrix distribution used by
	// the HPF matvec server.
	RowBlockMatrix = hpfrt.RowBlockMatrix
	// NewSection builds a unit-stride section.
	NewSection = gidx.NewSection
	// FullSection covers a whole shape.
	FullSection = gidx.FullSection

	// RCB is recursive coordinate bisection partitioning.
	RCB = chaoslib.RCB
	// NewLPARXDecomposition builds an irregular patch decomposition.
	NewLPARXDecomposition = lparx.NewDecomposition
	// NewLPARXGrid allocates a process's patches of a decomposition.
	NewLPARXGrid = lparx.NewGrid
)
