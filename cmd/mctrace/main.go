// Command mctrace runs a named workload on the simulator and prints
// one view of the run.  Runs are deterministic, so the same invocation
// always produces byte-identical output.
//
// Workloads: section is the Table-5 structured-mesh section copy (-n,
// -iters); remap an irregular remap (translation-table traffic);
// clientserver the Figure-10 client/server matvec (-vectors), also
// reachable as figure10; elastic the crash-recovery experiment, where
// a server rank dies at a -seed-pinned site and the timeline carries
// the crash and crashdetect instants and the ckpt.save/ckpt.restore
// spans of the recovery path beside its schedule and move phases.
//
// Formats: traffic is what the schedule put on the wire — per-rank
// traffic, the virtual makespan and, under -fault / -crash, the
// reliability counters, detection lags and each survivor's outcome,
// then the process-pair message matrix, read off the tracer's send
// spans and fault instants.  phases is the per-phase virtual-time
// breakdown (schedule build, pack, ship, wait, unpack, ...) with
// counters and histograms; chrome is trace-event JSON for
// chrome://tracing / Perfetto / speedscope; collapsed is collapsed
// stacks for flamegraph.pl / inferno.
//
// Usage:
//
//	mctrace -workload remap|section|clientserver [-procs N]
//	mctrace -workload section -fault lossy -seed 7 -reliable
//	mctrace -workload section -crash 2@0.004 -reliable
//	mctrace -workload section -procs 8 -iters 10 -format collapsed | flamegraph.pl > flame.svg
//	mctrace -workload figure10 -procs 8 -format chrome -o trace.json
//	mctrace -workload elastic -procs 4 -seed 7 -format phases
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"metachaos"
	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/exp"
	"metachaos/internal/faultsim"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
)

const (
	workloadNames = "section, remap, clientserver, figure10, elastic"
	formatNames   = "traffic, phases, chrome, collapsed"
)

// views are the formats that render the tracer alone; traffic (nil)
// renders the run's statistics beside the message matrix it folds from
// the tracer's spans.
var views = map[string]func(*obs.Tracer, io.Writer) error{
	"traffic":   nil,
	"phases":    (*obs.Tracer).WriteReport,
	"chrome":    (*obs.Tracer).WriteChromeTrace,
	"collapsed": (*obs.Tracer).WriteCollapsed,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mctrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "section", "workload to run: "+workloadNames)
	procs := fs.Int("procs", 4, "process count (server processes for clientserver, figure10 and elastic)")
	size := fs.Int("n", 256, "mesh dimension (section)")
	iters := fs.Int("iters", 4, "schedule reuses (section) or solver iterations (elastic)")
	vectors := fs.Int("vectors", 1, "vectors shipped through the coupling (clientserver, figure10)")
	fault := fs.String("fault", "none", "fault profile: none, mild, lossy, random, crashy or flaky")
	seed := fs.Uint64("seed", 1, "fault profile seed; crash-site seed for elastic")
	reliable := fs.Bool("reliable", false, "enable the retransmitting reliable transport")
	crash := fs.String("crash", "", "schedule fail-stop crashes: rank@time[,rank@time...], e.g. 2@0.004")
	format := fs.String("format", "traffic", "view to print: "+formatNames)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "mctrace: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	view, ok := views[*format]
	if !ok {
		return usage("no -format %q (have %s)", *format, formatNames)
	}
	tr := obs.NewTracer()

	prof, err := faultsim.ByName(*fault, *seed)
	if err != nil {
		return usage("%v", err)
	}
	if *crash != "" {
		if prof == nil {
			prof = &faultsim.Profile{Seed: *seed}
		}
		for _, spec := range strings.Split(*crash, ",") {
			var rank int
			var at float64
			// The newline anchors the match: trailing junk is an error.
			if _, err := fmt.Sscanf(spec+"\n", "%d@%g\n", &rank, &at); err != nil || rank < 0 || at < 0 {
				return usage("-crash %q: want rank@time (virtual seconds)", spec)
			}
			prof = prof.WithCrash(rank, at)
		}
	}
	// A nil *Profile must stay a nil interface, or the net layer would
	// call Decide on a nil receiver.
	var inj mpsim.FaultInjector
	if prof != nil {
		inj = prof
	}
	crashes := prof.HasCrashes()
	var outcomes []string
	runSPMD := func(body func(p *mpsim.Proc)) *mpsim.Stats {
		if crashes {
			// Under fail-stop faults a survivor's blocked operation
			// panics with a peer-death error; run each rank's workload
			// in a deadline scope so the trace completes and reports
			// every rank's outcome instead of aborting.
			outcomes = make([]string, *procs)
			inner := body
			body = func(p *mpsim.Proc) {
				// A rank that crashes never gets here: no outcome.
				if err := p.WithTimeout(0.5, func() { inner(p) }); err != nil {
					outcomes[p.Rank()] = err.Error()
				} else {
					outcomes[p.Rank()] = "completed"
				}
			}
		}
		return mpsim.Run(mpsim.Config{
			Machine:  mpsim.SP2(),
			Fault:    inj,
			Reliable: *reliable,
			Crash:    prof.CrashPlan(),
			Obs:      tr,
			Programs: []mpsim.ProgramSpec{{Name: "spmd", Procs: *procs, Body: body}},
		})
	}

	var stats *metachaos.Stats
	switch *workload {
	case "section":
		stats = runSPMD(exp.ProfileSection(*size, *iters))
	case "remap":
		stats = runSPMD(remap)
	case "clientserver", "figure10":
		if crashes {
			return usage("the %s workload does not take crash faults; see -workload elastic", *workload)
		}
		stats = exp.RunClientServerStats(exp.CSConfig{
			ClientProcs: 1, ServerProcs: *procs, Vectors: *vectors,
			Fault: inj, Reliable: *reliable, Obs: tr,
		})
	case "elastic":
		if view == nil || prof != nil || *reliable {
			return usage("the elastic workload schedules its own crash from -seed and has no traffic view: " +
				"pick -format phases, chrome or collapsed and drop -fault, -crash and -reliable")
		}
		res := exp.ProfileElastic(tr, *procs, *iters, *seed)
		for _, c := range res.Crashes {
			fmt.Fprintf(stderr, "mctrace: rank %d died at %.3fms, detected at %.3fms; %d shrink(s), %d restore(s), %d server(s) finished\n",
				c.Rank, c.At*1000, c.DetectedAt*1000, res.Shrinks, res.Restores, res.Survivors)
		}
	default:
		return usage("no workload %q (have %s)", *workload, workloadNames)
	}

	// Spans a scheduled crash cut short stay open; anywhere else an open
	// span is an instrumentation bug.
	if n := tr.OpenSpans(); n != 0 && !crashes {
		fmt.Fprintf(stderr, "mctrace: %d spans left open after the run\n", n)
		return 1
	}

	w, file := stdout, (*os.File)(nil)
	if *out != "" {
		if file, err = os.Create(*out); err != nil {
			fmt.Fprintf(stderr, "mctrace: %v\n", err)
			return 1
		}
		w = file
	}
	bw := bufio.NewWriter(w)
	if view != nil {
		err = view(tr, bw)
	} else {
		report(bw, stats, tr)
		reportCrashes(bw, stats, outcomes)
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if file != nil {
		// A failed close is a failed write: the file may be short.
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "mctrace: %v\n", err)
		return 1
	}
	if file != nil {
		fmt.Fprintf(stderr, "mctrace: wrote %s (%d spans)\n", *out, tr.SpanCount())
	}
	return 0
}

// remap is the irregular-remap workload: a stride permutation as the
// "bad" initial distribution, remapped to contiguous blocks.
func remap(p *mpsim.Proc) {
	const n = 1024
	nprocs := p.Size()
	ctx := core.NewCtx(p, p.Comm())
	var mine []int32
	for g := p.Rank(); g < n; g += nprocs {
		mine = append(mine, int32((g*7)%n))
	}
	x, err := metachaos.NewChaosArray(ctx, mine)
	if err != nil {
		panic(err)
	}
	lo, hi := p.Rank()*n/nprocs, (p.Rank()+1)*n/nprocs
	contiguous := make([]int32, hi-lo)
	for g := lo; g < hi; g++ {
		contiguous[g-lo] = int32(g)
	}
	if _, err := chaoslib.Remap(ctx, x, contiguous); err != nil {
		panic(err)
	}
}

// report prints the traffic view.
func report(w io.Writer, st *metachaos.Stats, tr *obs.Tracer) {
	fmt.Fprintf(w, "machine: %s\n", st.Machine)
	fmt.Fprintf(w, "virtual makespan: %.3f ms\n", st.MakespanSeconds*1000)
	fmt.Fprintf(w, "total: %d messages, %d bytes\n\n", st.TotalMsgs(), st.TotalBytes())

	// Any reliability activity, including runs where everything was
	// clean but discarded, earns the per-rank reliability block.
	var touched int64
	fmt.Fprintln(w, "per-rank traffic:")
	for r := range st.PerRank {
		rs := st.PerRank[r]
		fmt.Fprintf(w, "  rank %2d: sent %5d msgs / %8d B   recv %5d msgs / %8d B\n",
			r, rs.MsgsSent, rs.BytesSent, rs.MsgsRecv, rs.BytesRecv)
		touched += rs.Drops + rs.Retransmits + rs.DupsDiscarded + rs.CorruptDiscarded + rs.Timeouts + rs.FailedSends
	}

	if touched > 0 {
		fmt.Fprintln(w, "\nreliability (per rank):")
		for r := range st.PerRank {
			rs := st.PerRank[r]
			fmt.Fprintf(w, "  rank %2d: drops %4d  rexmit %4d  dup-disc %4d  corrupt-disc %4d  timeouts %3d  failed-sends %3d\n",
				r, rs.Drops, rs.Retransmits, rs.DupsDiscarded, rs.CorruptDiscarded, rs.Timeouts, rs.FailedSends)
		}
		fmt.Fprintf(w, "  total: %d drops, %d retransmits\n", st.TotalDrops(), st.TotalRetransmits())
	}

	fmt.Fprintln(w, "\nmessage matrix (from -> to: msgs/bytes):")
	n := len(st.PerRank)
	for i, l := range matrix(tr, n) {
		switch {
		case l.drops+l.rexmits+l.dupDiscards > 0:
			fmt.Fprintf(w, "  %2d -> %2d: %4d msgs %8d B   (drops %d, rexmit %d, dup-disc %d)\n",
				i/n, i%n, l.msgs, l.bytes, l.drops, l.rexmits, l.dupDiscards)
		case l.msgs > 0:
			fmt.Fprintf(w, "  %2d -> %2d: %4d msgs %8d B\n", i/n, i%n, l.msgs, l.bytes)
		}
	}
}

// linkTraffic is one directed link's entry in the message matrix.
type linkTraffic struct{ msgs, bytes, drops, rexmits, dupDiscards int64 }

// matrix folds the tracer's spans into the n-rank world's links, row
// major by (from, to).  A send span, a drop and a rexmit instant run
// rank -> peer (a lost ack is its acker's drop, on the acker -> sender
// link); a dupdisc instant runs peer -> the discarding rank.  So every
// column adds up to the per-rank counter of the rank it is charged to.
func matrix(tr *obs.Tracer, n int) []linkTraffic {
	links := make([]linkTraffic, n*n)
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "send":
			l := &links[sp.Rank*n+sp.Peer]
			l.msgs++
			l.bytes += sp.Bytes
		case "drop":
			links[sp.Rank*n+sp.Peer].drops++
		case "rexmit":
			links[sp.Rank*n+sp.Peer].rexmits++
		case "dupdisc":
			links[sp.Peer*n+sp.Rank].dupDiscards++
		}
	}
	return links
}

// reportCrashes prints the run's fail-stop history: who died and when,
// how long the heartbeat detector took to notice, restarts, and what
// each rank's workload came to.
func reportCrashes(w io.Writer, st *metachaos.Stats, outcomes []string) {
	if len(st.Crashes) == 0 {
		return
	}
	fmt.Fprintln(w, "\ncrash faults:")
	for _, c := range st.Crashes {
		fmt.Fprintf(w, "  rank %2d died at %.3f ms", c.Rank, c.At*1000)
		if c.DetectedAt > 0 {
			fmt.Fprintf(w, ", detected at %.3f ms (lag %.3f ms)", c.DetectedAt*1000, (c.DetectedAt-c.At)*1000)
		} else {
			fmt.Fprintf(w, ", not detected before the run ended")
		}
		if c.RestartAt > 0 {
			fmt.Fprintf(w, ", restarted at %.3f ms", c.RestartAt*1000)
		}
		fmt.Fprintln(w)
	}
	var timeouts, failedSends int64
	for r := range st.PerRank {
		timeouts += st.PerRank[r].Timeouts
		failedSends += st.PerRank[r].FailedSends
	}
	fmt.Fprintf(w, "  detector: %d crash(es) recorded; %d timeouts, %d abandoned sends across ranks\n",
		len(st.Crashes), timeouts, failedSends)
	for r, o := range outcomes {
		if o != "" {
			fmt.Fprintf(w, "  rank %2d outcome: %s\n", r, o)
		}
	}
}
