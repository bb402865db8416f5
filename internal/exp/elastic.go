package exp

import (
	"fmt"
	"hash/fnv"

	"metachaos/internal/ckpt"
	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/faultsim"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
)

// The elastic-recovery experiment: the Figure-10 client/server pairing
// re-run under a fail-stop crash.  A one-process client drives an HPF
// server through a power iteration (y = A·x on the server, x scaled
// from y on the client); mid-run one server process dies.  The
// survivors detect the death through the virtual-time heartbeat
// detector, shrink the coupling, restore the operand vector from the
// client's checkpoint store, re-ship the matrix from the client's
// pristine copy over freshly computed schedules, and finish the
// remaining iterations on the smaller server.  Because the server's
// MatVec allgathers the operand and reduces each row left-to-right,
// the result is bit-identical for any server size — so the recovered
// run must end with exactly the fault-free run's ResultHash.
//
// Coordination is slotted: every participant aligns on fixed
// virtual-time boundaries (SleepUntil is a message-free barrier), and
// the failure detector's state is a pure function of virtual time, so
// all survivors reading it at the same boundary reach the same
// shrink-or-commit decision without exchanging a single message.  An
// iteration attempted in slot k commits at boundary k+1 only if the
// dead set did not change across the slot; otherwise the slot is void
// and the iteration is redone after a recovery slot.

// elasticN is the matrix dimension (small; the experiment measures
// recovery machinery, not bandwidth).
const elasticN = 96

// elasticSetup is the virtual-time allowance for coupling, schedule
// exchange and the initial matrix ship; slot boundaries start here.
const elasticSetup = 0.5

// elasticSlot is the per-iteration slot width.  It dominates the
// detector lag (3 ms) so a death in a slot's first half is
// always visible at the next boundary, and it fits a whole recovery
// (schedule recompute + matrix re-ship) when a boundary turns into a
// recovery slot.
const elasticSlot = 0.25

// ElasticConfig parameterizes one elastic-recovery run.
type ElasticConfig struct {
	// ServerProcs is the initial HPF server size (≥ 2 so a death
	// leaves a server).
	ServerProcs int
	// Iters is the number of power-iteration steps to commit.
	Iters int
	// Seed drives the crash site and time (see ElasticCrash).
	Seed uint64
	// Obs, when non-nil, records spans and metrics on the virtual
	// clock.
	Obs *obs.Tracer
}

// ElasticResult is one elastic run's outcome.
type ElasticResult struct {
	// ResultHash fingerprints the final operand vector on the client.
	ResultHash uint64
	// Survivors is the server size the run finished with.
	Survivors int
	// Shrinks and Restores count recovery slots and checkpoint
	// restores on the client (0 on a fault-free run).
	Shrinks  int
	Restores int
	// Crashes is the run's crash history from the simulator.
	Crashes []mpsim.CrashRecord
	// Makespan is the run's virtual-time length in seconds.
	Makespan float64
}

// ElasticCrash derives the seed-pinned crash for a run: a server rank
// (never the client) dying inside the first two iteration slots.
func ElasticCrash(seed uint64, serverProcs int) faultsim.Crash {
	z := seed ^ 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z>>11) / (1 << 53)
	return faultsim.Crash{
		Rank: 1 + int(z%uint64(serverProcs)),
		At:   elasticSetup + elasticSlot*(0.1+1.5*frac),
	}
}

// ElasticFigure10 runs the elastic-recovery experiment twice — once
// with the seed-pinned crash, once fault-free — and returns both
// results.  The faulty run's ResultHash must equal the clean run's;
// the chaos tests assert it, and the nightly sweep asserts it across
// many seeds.
func ElasticFigure10(cfg ElasticConfig) (faulty, clean ElasticResult) {
	c := ElasticCrash(cfg.Seed, cfg.ServerProcs)
	prof := (&faultsim.Profile{Seed: cfg.Seed}).WithCrash(c.Rank, c.At)
	faulty = runElastic(cfg, prof.CrashPlan())
	clean = runElastic(cfg, nil)
	return faulty, clean
}

// runElastic executes one elastic run under an optional crash plan.
func runElastic(cfg ElasticConfig, plan mpsim.CrashPlan) ElasticResult {
	if cfg.ServerProcs < 2 {
		panic("exp: elastic run needs at least 2 server processes")
	}
	if cfg.Iters <= 0 {
		panic("exp: elastic run needs at least 1 iteration")
	}
	var out ElasticResult
	// The attempt budget ends two detector lags before the boundary,
	// so a failed attempt never leaks past the slot whose boundary
	// will judge it.
	budget := elasticSlot - 2*mpsim.SuspectAfter - 2*mpsim.HeartbeatPeriod

	st := mpsim.Run(mpsim.Config{
		Machine: mpsim.AlphaFarmATM(),
		Crash:   plan,
		Obs:     cfg.Obs,
		Programs: []mpsim.ProgramSpec{
			{Name: "client", Procs: 1, ProcsPerNode: 1, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				a, x, y := elasticClientArrays()
				coupling := must(core.CoupleByName(p, "client", "server"))
				store := ckpt.NewStore()
				cache := core.NewScheduleCache()
				var matSched, vecSched *core.Schedule
				setup := func() {
					cache.SetIncarnation(p.GroupIncarnation())
					matSched = elasticSchedule(cache, "mat", coupling, elasticSpec(ctx, a, elasticMat), nil)
					vecSched = elasticSchedule(cache, "vec", coupling, elasticSpec(ctx, x, elasticVec), nil)
					matSched.MoveSend(a)
				}
				setup()
				store.Save(p, 0, ckpt.Named{Name: "x", Obj: x})

				it, slot, knownDead, attempted := 0, 0, 0, false
				for {
					p.SleepUntil(elasticBoundary(slot))
					slot++
					dead := p.DeadRanks()
					if len(dead) != knownDead {
						// The slot just run is void: shrink to the
						// survivors, rewind to the last committed
						// iteration, and rebuild the transfer.
						knownDead = len(dead)
						attempted = false
						out.Shrinks++
						coupling = must(coupling.Shrink(dead))
						check(store.Restore(p, it, ckpt.Named{Name: "x", Obj: x}))
						out.Restores++
						setup()
						continue
					}
					if attempted {
						// Commit: the dead set held through the slot,
						// so every server block of y arrived.
						commitScale(x, y)
						it++
						store.Save(p, it, ckpt.Named{Name: "x", Obj: x})
						attempted = false
					}
					if it >= cfg.Iters {
						break
					}
					attempted = p.WithTimeout(budget, func() { elasticClientStep(p, vecSched, x, y) }) == nil
				}
				out.ResultHash = hashVector(x)
				out.Survivors = coupling.Union.Size() - 1
			}},
			{Name: "server", Procs: cfg.ServerProcs, ProcsPerNode: 1, Body: func(p *mpsim.Proc) {
				srvComm := p.Comm()
				ns, me := srvComm.Size(), srvComm.Rank()
				ctx := core.NewCtx(p, srvComm)
				a, x, y := elasticServerArrays(ns, me)
				coupling := must(core.CoupleByName(p, "client", "server"))
				cache := core.NewScheduleCache()
				var matSched, vecSched *core.Schedule
				setup := func() {
					cache.SetIncarnation(p.GroupIncarnation())
					matSched = elasticSchedule(cache, "mat", coupling, nil, elasticSpec(ctx, a, elasticMat))
					vecSched = elasticSchedule(cache, "vec", coupling, nil, elasticSpec(ctx, x, elasticVec))
					matSched.MoveRecv(a)
				}
				setup()

				it, slot, knownDead, attempted := 0, 0, 0, false
				for {
					p.SleepUntil(elasticBoundary(slot))
					slot++
					dead := p.DeadRanks()
					if len(dead) != knownDead {
						knownDead = len(dead)
						attempted = false
						// Rebuild this side over the survivors: a fresh
						// server communicator, this process's tile of
						// the redistributed arrays, and new schedules;
						// the matrix re-ships from the client's
						// pristine copy inside setup.
						srvComm = srvComm.Exclude(dead)
						ns, me = srvComm.Size(), srvComm.Rank()
						ctx = core.NewCtx(p, srvComm)
						a, x, y = elasticServerArrays(ns, me)
						coupling = must(coupling.Shrink(dead))
						setup()
						continue
					}
					if attempted {
						it++
						attempted = false
					}
					if it >= cfg.Iters {
						break
					}
					attempted = p.WithTimeout(budget, func() { elasticServerStep(ctx, vecSched, a, x, y) }) == nil
				}
			}},
		},
	})
	out.Crashes = st.Crashes
	out.Makespan = st.MakespanSeconds
	if out.Survivors == 0 {
		out.Survivors = cfg.ServerProcs - len(out.Crashes)
	}
	return out
}

// commitScale applies the client's half of a power-iteration step:
// x = y / max|y|, sequential over the full vector, so the update is a
// pure function of y regardless of where y's blocks were computed.
func commitScale(x, y *hpfrt.Array) {
	yl := y.Local()
	m := 0.0
	for _, v := range yl {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	inv := 1 / m
	xl := x.Local()
	for i := range xl {
		xl[i] = yl[i] * inv
	}
}

// hashVector fingerprints a fully local vector.
func hashVector(x *hpfrt.Array) uint64 {
	h := fnv.New64a()
	h.Write(codec.Float64sToBytes(x.Local()))
	return h.Sum64()
}

// The power iteration's sections, slot boundaries, arrays and
// per-slot steps, shared by the client's and the server's slot loops.
var (
	elasticMat = gidx.FullSection(gidx.Shape{elasticN, elasticN})
	elasticVec = gidx.FullSection(gidx.Shape{elasticN})
)

// elasticSpec names section sec of this side's HPF array.
func elasticSpec(ctx *core.Ctx, obj *hpfrt.Array, sec gidx.Section) *core.Spec {
	return &core.Spec{Lib: hpfrt.Library, Obj: obj, Set: core.NewSetOfRegions(sec), Ctx: ctx}
}

// elasticSchedule is this side's half of a client/server schedule,
// computed once per group incarnation and served from cache after.
func elasticSchedule(cache *core.ScheduleCache, key string, g *core.Coupling, src, dst *core.Spec) *core.Schedule {
	return must(cache.Get(key, core.Float64, func() (*core.Schedule, error) {
		return core.ComputeSchedule(g, src, dst, core.Cooperation)
	}))
}

// elasticBoundary is the virtual time at which slot begins.
func elasticBoundary(slot int) float64 { return elasticSetup + float64(slot)*elasticSlot }

// elasticServerArrays allocates process me's tiles of the matrix,
// operand and result over an ns-process server.
func elasticServerArrays(ns, me int) (a, x, y *hpfrt.Array) {
	return hpfrt.NewArray(hpfrt.RowBlockMatrix(elasticN, elasticN, ns), me),
		hpfrt.NewArray(hpfrt.BlockVector(elasticN, ns), me),
		hpfrt.NewArray(hpfrt.BlockVector(elasticN, ns), me)
}

// elasticClientArrays is the one-process client's pristine matrix and
// starting operand (plus the result vector they produce).
func elasticClientArrays() (a, x, y *hpfrt.Array) {
	a, x, y = elasticServerArrays(1, 0)
	a.FillGlobal(func(c []int) float64 { return float64((c[0]*13+c[1]*7)%17) - 8 })
	x.FillGlobal(func(c []int) float64 { return 1 + float64(c[0]%7)/8 })
	return a, x, y
}

// elasticClientStep is the client's half of one iteration attempt:
// ship the operand, collect the product.  A degraded move panics with
// the peer-death error WithTimeout turns into a failed attempt.
func elasticClientStep(p *mpsim.Proc, vec *core.Schedule, x, y *hpfrt.Array) {
	for _, r := range []core.MoveResult{vec.MoveSend(x), vec.MoveReverseRecv(y)} {
		if !r.OK() {
			panic(&mpsim.NetError{Op: "elastic", Rank: p.WorldRank(), Peer: r.FailedPeers[0], Err: mpsim.ErrPeerDead})
		}
	}
}

// elasticServerStep is a server process's half: receive the operand,
// multiply, return this process's block of the product.
func elasticServerStep(ctx *core.Ctx, vec *core.Schedule, a, x, y *hpfrt.Array) {
	if r := vec.MoveRecv(x); !r.OK() {
		panic(&mpsim.NetError{Op: "elastic", Rank: ctx.P.WorldRank(), Peer: r.FailedPeers[0], Err: mpsim.ErrPeerDead})
	}
	check(hpfrt.MatVec(ctx, a, x, y))
	vec.MoveReverseSend(y)
}

// ProfileElastic runs the crashy half of the elastic experiment under
// tr — the crash and crashdetect instants and the ckpt.save and
// ckpt.restore spans land on its virtual timeline alongside the
// schedule and move phases.
func ProfileElastic(tr *obs.Tracer, serverProcs, iters int, seed uint64) ElasticResult {
	c := ElasticCrash(seed, serverProcs)
	prof := (&faultsim.Profile{Seed: seed}).WithCrash(c.Rank, c.At)
	return runElastic(ElasticConfig{ServerProcs: serverProcs, Iters: iters, Seed: seed, Obs: tr}, prof.CrashPlan())
}

// ElasticTable summarizes the elastic-recovery experiment for the
// report: fault-free vs crashed runs over a small server sweep, with
// the bit-identical check inline.
func ElasticTable() *Table {
	sweep := []int{2, 4, 8}
	const iters, seed = 5, 1
	rows := map[string][]float64{
		"makespan fault-free": make([]float64, len(sweep)),
		"makespan crashed":    make([]float64, len(sweep)),
		"recovery slots":      make([]float64, len(sweep)),
		"bit-identical":       make([]float64, len(sweep)),
	}
	for i, sp := range sweep {
		faulty, clean := ElasticFigure10(ElasticConfig{ServerProcs: sp, Iters: iters, Seed: seed})
		rows["makespan fault-free"][i] = ms(clean.Makespan)
		rows["makespan crashed"][i] = ms(faulty.Makespan)
		rows["recovery slots"][i] = float64(faulty.Shrinks)
		if faulty.ResultHash == clean.ResultHash {
			rows["bit-identical"][i] = 1
		}
	}
	return &Table{
		ID:        "Elastic recovery",
		Title:     fmt.Sprintf("Crash mid-run, detect, shrink, restore from checkpoint, finish (%d-step power iteration, %dx%d matrix)", iters, elasticN, elasticN),
		Unit:      "msec (counts unitless)",
		ColHeader: "initial server processes",
		Cols:      colLabels(sweep),
		Rows: []Row{
			{Label: "makespan fault-free", Values: rows["makespan fault-free"]},
			{Label: "makespan crashed", Values: rows["makespan crashed"]},
			{Label: "recovery slots", Values: rows["recovery slots"]},
			{Label: "bit-identical", Values: rows["bit-identical"]},
		},
		Notes: []string{
			"bit-identical = 1 means the crashed run's final vector hashes equal to the fault-free run's",
			"crashed makespan exceeds fault-free by the voided slot plus one recovery slot (detector lag, shrink, checkpoint restore, matrix re-ship)",
		},
	}
}
