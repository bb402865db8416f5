package exp

import (
	"hash/fnv"

	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
)

// Section 5.4's client/server experiment on the Alpha farm: a Fortran
// + Multiblock Parti client uses an HPF matrix-vector multiply program
// as a computation engine.  The client ships a 512x512 matrix once,
// then sends operand vectors and receives result vectors, all through
// Meta-Chaos schedules.  Only two schedules are needed: one for the
// matrix and one symmetric vector schedule reused in both directions.

// csN is the matrix dimension.
const csN = 512

// serverNodes is how many SMP nodes the server may occupy; processes
// beyond that share node links (up to 4 CPUs per node).
const serverNodes = 4

// CSConfig parameterizes one client/server run.
type CSConfig struct {
	ClientProcs int
	ServerProcs int
	Vectors     int
	// Fault, when set, injects network faults into the run; Reliable
	// enables the retransmitting transport so the coupled programs
	// still complete (the chaos harness pairs the two).
	Fault    mpsim.FaultInjector
	Reliable bool
	// Fingerprint gathers the final result vector into ResultHash,
	// at the cost of an extra client-side allgather.
	Fingerprint bool
	// Obs, when non-nil, records the run's spans and metrics on the
	// virtual clock (see internal/obs); nil keeps observability off.
	Obs *obs.Tracer
}

// CSBreakdown carries the stacked components of Figures 10-14, in
// seconds, measured on the client (the server's compute time is
// reported back out of band, as the paper's instrumentation did).
type CSBreakdown struct {
	Schedule   float64 // compute both communication schedules
	SendMatrix float64 // ship the matrix to the server
	Server     float64 // HPF matrix-vector multiply time, all vectors
	Vector     float64 // vector send/receive time, all vectors
	// ResultHash fingerprints the final result vector gathered on the
	// client, so chaos runs can assert bit-identical output against a
	// fault-free reference.
	ResultHash uint64
}

// Total returns the end-to-end time.
func (b CSBreakdown) Total() float64 {
	return b.Schedule + b.SendMatrix + b.Server + b.Vector
}

const csServerTimeTag = 0x50000

// RunClientServer executes one configuration and returns the client's
// breakdown.
func RunClientServer(cfg CSConfig) CSBreakdown {
	b, _ := runClientServer(cfg)
	return b
}

// RunClientServerStats runs one configuration and returns the raw
// machine statistics (for traffic inspection tools).
func RunClientServerStats(cfg CSConfig) *mpsim.Stats {
	_, st := runClientServer(cfg)
	return st
}

func runClientServer(cfg CSConfig) (CSBreakdown, *mpsim.Stats) {
	var out CSBreakdown
	ppn := (cfg.ServerProcs + serverNodes - 1) / serverNodes
	matSec := gidx.FullSection(gidx.Shape{csN, csN})
	vecSec := gidx.FullSection(gidx.Shape{csN})

	st := mpsim.Run(mpsim.Config{
		Machine:  mpsim.AlphaFarmATM(),
		Fault:    cfg.Fault,
		Reliable: cfg.Reliable,
		Obs:      cfg.Obs,
		Programs: []mpsim.ProgramSpec{
			{Name: "client", Procs: cfg.ClientProcs, ProcsPerNode: 1, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				cp := cfg.ClientProcs
				ydist := hpfrt.BlockVector(csN, cp)
				a := mbparti.MustNewArray(distarray.MustBlock2D(csN, csN, cp), p.Rank(), 0)
				x := mbparti.MustNewArray(hpfrt.BlockVector(csN, cp), p.Rank(), 0)
				y := mbparti.MustNewArray(ydist, p.Rank(), 0)
				a.FillGlobal(func(c []int) float64 { return float64((c[0]*7+c[1]*3)%11) - 5 })
				x.FillGlobal(func(c []int) float64 { return float64(c[0]%5) + 0.5 })

				coupling := must(core.CoupleByName(p, "client", "server"))
				var matSched, vecSched *core.Schedule
				tSched := timePhase(p, coupling.Union, func() {
					matSched = mustSchedule(coupling,
						&core.Spec{Lib: mbparti.Library, Obj: a, Set: core.NewSetOfRegions(matSec), Ctx: ctx},
						nil, core.Cooperation)
					vecSched = mustSchedule(coupling,
						&core.Spec{Lib: mbparti.Library, Obj: x, Set: core.NewSetOfRegions(vecSec), Ctx: ctx},
						nil, core.Cooperation)
				})
				tMat := timePhase(p, coupling.Union, func() { matSched.MoveSend(a) })
				tLoop := timeIters(p, coupling.Union, cfg.Vectors, func() {
					vecSched.MoveSend(x)
					// The symmetric vector schedule carries the result
					// back (server x and y share a distribution).
					vecSched.MoveReverseRecv(y)
				})
				// Fingerprint the final result vector: each client
				// process contributes its block, gathered in rank order.
				var hash uint64
				if cfg.Fingerprint {
					var w codec.Writer
					for i := 0; i < csN; i++ {
						if ydist.OwnerOf([]int{i}) == p.Rank() {
							w.PutFloat64(y.Get([]int{i}))
						}
					}
					parts := p.Comm().Allgather(w.Bytes())
					if p.Rank() == 0 {
						h := fnv.New64a()
						for _, part := range parts {
							h.Write(part)
						}
						hash = h.Sum64()
					}
				}
				// The server reports its pure compute time out of band.
				if p.Rank() == 0 {
					data, _ := coupling.Union.Recv(coupling.DstRanks[0], csServerTimeTag)
					serverT := codec.NewReader(data).Float64()
					out = CSBreakdown{
						Schedule:   tSched,
						SendMatrix: tMat,
						Server:     serverT,
						Vector:     tLoop - serverT,
						ResultHash: hash,
					}
				}
			}},
			{Name: "server", Procs: cfg.ServerProcs, ProcsPerNode: ppn, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				sp := cfg.ServerProcs
				a := hpfrt.NewArray(hpfrt.RowBlockMatrix(csN, csN, sp), p.Rank())
				x := hpfrt.NewArray(hpfrt.BlockVector(csN, sp), p.Rank())
				y := hpfrt.NewArray(hpfrt.BlockVector(csN, sp), p.Rank())

				coupling := must(core.CoupleByName(p, "client", "server"))
				var matSched, vecSched *core.Schedule
				timePhase(p, coupling.Union, func() {
					matSched = mustSchedule(coupling, nil,
						&core.Spec{Lib: hpfrt.Library, Obj: a, Set: core.NewSetOfRegions(matSec), Ctx: ctx},
						core.Cooperation)
					vecSched = mustSchedule(coupling, nil,
						&core.Spec{Lib: hpfrt.Library, Obj: x, Set: core.NewSetOfRegions(vecSec), Ctx: ctx},
						core.Cooperation)
				})
				timePhase(p, coupling.Union, func() { matSched.MoveRecv(a) })
				serverT := 0.0
				timeIters(p, coupling.Union, cfg.Vectors, func() {
					vecSched.MoveRecv(x)
					t0 := p.Clock()
					check(hpfrt.MatVec(ctx, a, x, y))
					serverT += p.Clock() - t0
					vecSched.MoveReverseSend(y)
				})
				// Every server process computed in lockstep; rank 0's
				// measurement stands for the program.
				if p.Rank() == 0 {
					var w codec.Writer
					w.PutFloat64(serverT)
					coupling.Union.Send(coupling.SrcRanks[0], csServerTimeTag, w.Bytes())
				}
			}},
		},
	})
	return out, st
}

// RunClientLocal measures the client computing the matrix-vector
// product itself (the Figure 15 baseline): per-vector seconds on the
// given number of client processes.
func RunClientLocal(clientProcs, vectors int) float64 {
	v, _ := measure(mpsim.Config{Machine: mpsim.AlphaFarmATM()}, clientProcs, func(p *mpsim.Proc) []float64 {
		ctx := core.NewCtx(p, p.Comm())
		a := hpfrt.NewArray(hpfrt.RowBlockMatrix(csN, csN, clientProcs), p.Rank())
		x := hpfrt.NewArray(hpfrt.BlockVector(csN, clientProcs), p.Rank())
		y := hpfrt.NewArray(hpfrt.BlockVector(csN, clientProcs), p.Rank())
		a.FillGlobal(func(c []int) float64 { return 1 })
		x.FillGlobal(func(c []int) float64 { return 1 })
		return []float64{perIter(p, p.Comm(), vectors, func() { check(hpfrt.MatVec(ctx, a, x, y)) })}
	})
	return v[0]
}
