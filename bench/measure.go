package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"metachaos"
)

// One workload run, start to finish:
//
//	an incarnation that stops where its set-up ends
//	an incarnation that goes on into the timed section
//	[traced run: that section was under a CPU profile; now one more
//	 incarnation with the program's tracer and the driver's spans on]
//	another set-up-only incarnation
//
// The profile is taken of the untraced incarnation because the tracer's
// own span storage would otherwise be the largest layer in it.
//
// setup_s is the fastest of the three untraced set-ups: everything from
// the start of the process (of the incarnation, for the later two) to
// the first timed op, the warm-up included.  One of them follows the
// timed section because interference lasts seconds to minutes: three in
// a row share one stretch of it far too often (README.md, "setup_s").

// common fills in what every workload measures the same way.
func common(v map[string]float64, opMs []float64, t0 []time.Duration, end time.Duration, roundOps int, mem *[2]runtime.MemStats) {
	ops := float64(len(opMs))
	meds := roundMedians(opMs, roundOps)
	v["op_ms_p50"] = minOf(meds)
	v["ops_per_s"] = bestRate(t0, end, roundOps)
	v["run.op_ms_p95"] = tail(opMs, 0.95)
	v["run.op_ms_p50_whole"] = median(opMs)
	v["run.ops_per_s_whole"] = ops / end.Seconds()
	v["run.round_spread"] = maxOf(meds) / minOf(meds)
	v["host.allocs_per_op"] = float64(mem[1].Mallocs-mem[0].Mallocs) / ops
	v["host.alloc_kb_per_op"] = float64(mem[1].TotalAlloc-mem[0].TotalAlloc) / 1024 / ops
	v["host.gc_cycles_per_kop"] = float64(mem[1].NumGC-mem[0].NumGC) * 1000 / ops
	v["host.gc_pause_ms"] = float64(mem[1].PauseTotalNs-mem[0].PauseTotalNs) / 1e6
}

// cpuProfile is the traced run's CPU profile of its timed section.
type cpuProfile struct {
	path string
	f    *os.File
	err  error
}

// hook starts the profile as the section begins and stops it as the
// section ends.
func (c *cpuProfile) hook(begin bool) {
	if !begin {
		if c.f != nil {
			pprof.StopCPUProfile()
			c.err = c.f.Close()
		}
		return
	}
	if c.f, c.err = os.Create(c.path); c.err != nil {
		return
	}
	if c.err = pprof.StartCPUProfile(c.f); c.err != nil {
		c.f.Close()
		c.f = nil
	}
}

// addShares buckets the profile by layer into cpu_share.*.
func (c *cpuProfile) addShares(v map[string]float64) {
	var shares map[string]float64
	if c.err == nil {
		shares, c.err = cpuShares(c.path)
	}
	if c.err != nil {
		// The profile is a view, not a check: without the tool the
		// shares read 0 and the run still counts.
		fmt.Fprintln(os.Stderr, "bench: cpu_share.* unavailable:", c.err)
	}
	for _, s := range shareNames {
		v["cpu_share."+s] = shares[s]
	}
}

func traceFile(o options, workload string) string {
	if o.traceOut != "" {
		return o.traceOut
	}
	return filepath.Join(o.dir, "trace-"+workload+".json")
}

func measureInWorld(def *worldDef, o options) (*outcome, error) {
	v := map[string]float64{"run.loadavg_start": loadavg()}
	c := countsFor(def.name, o)
	out := &outcome{v: v}
	var setups, builds []float64
	// incarnate runs one incarnation and books what every one has.
	incarnate := func(w *worldRun, start time.Time) error {
		err := w.run(start)
		out.attempted += w.attempted
		out.failed += w.failed
		if w.tracer == nil {
			setups = append(setups, w.setupS)
			if len(w.schedSetup) > 0 {
				builds = append(builds, sum(w.schedSetup)/float64(len(w.schedSetup)))
			}
		}
		return err
	}
	setUp := func(start time.Time) error {
		w := newWorldRun(def, c)
		w.setupOnly = true
		return incarnate(w, start)
	}
	if err := setUp(processStart); err != nil {
		return nil, err
	}

	w := newWorldRun(def, c)
	prof := &cpuProfile{path: filepath.Join(o.dir, "cpu-"+def.name+".prof")}
	if o.trace {
		w.onSection = prof.hook
	}
	if err := incarnate(w, time.Now()); err != nil {
		return nil, err
	}
	ops := float64(c.rounds * c.roundOps)
	common(v, w.log.opMs, w.log.t0, w.sectionEnd, c.roundOps, &w.mem)
	v["vtime_ms_per_op"] = (w.vclock[1] - w.vclock[0]) * 1000 / ops

	var msgs, bytes, copied int64
	var ph metachaos.MovePhases
	strays := 0
	for r := range w.stat0 {
		msgs += w.stat1[r].MsgsSent - w.stat0[r].MsgsSent
		bytes += w.stat1[r].BytesSent - w.stat0[r].BytesSent
		copied += w.copied[r]
		strays += w.strays[r]
		addPhases(&ph, w.phases[r])
	}
	v["mpsim.msgs_per_op"] = float64(msgs) / ops
	v["mpsim.kb_per_op"] = float64(bytes) / 1024 / ops
	v["mpsim.wall_ns_per_msg"] = 1e9 / v["ops_per_s"] / v["mpsim.msgs_per_op"]
	v["core.move_vms.pack"] = ph.Pack * 1000 / ops
	v["core.move_vms.ship"] = ph.Ship * 1000 / ops
	v["core.move_vms.local"] = ph.Local * 1000 / ops
	v["core.move_vms.wait"] = ph.Wait * 1000 / ops
	v["core.move_vms.unpack"] = ph.Unpack * 1000 / ops
	v["core.move_bytes_copied_per_op"] = float64(copied) / ops
	v["core.move_ms_p50"] = bestRound(w.log.moveMs, c.roundOps)
	elems := 0.0
	for _, d := range def.cpls {
		elems += float64(d.src.size) / float64(len(def.cpls))
	}
	v["core.move_ns_per_byte"] = v["core.move_ms_p50"] * 1e6 / (elems * 8)
	if strays > 0 {
		// A move wrote outside its set: every op is suspect.
		fmt.Fprintf(os.Stderr, "bench: %s: %d elements outside the transfer sets were overwritten\n", def.name, strays)
		out.failed += c.rounds * c.roundOps
	}

	if o.trace {
		tc := c
		tc.rounds = min(c.rounds, tracedRounds)
		tw := newWorldRun(def, tc)
		tw.tracer = metachaos.NewTracer()
		tw.spans = newSpanLog(time.Now(), "rank 0")
		world := tw.spans.begin("world", -1)
		err := incarnate(tw, time.Now())
		world.end()
		if err != nil {
			return nil, err
		}
		v["trace.overhead_pct"] = (bestRound(tw.log.opMs, c.roundOps)/v["op_ms_p50"] - 1) * 100
		// Virtual ms per schedule build per participating rank.
		phase := map[string]metachaos.PhaseTotal{}
		for _, pt := range tw.tracer.PhaseTotals() {
			phase[pt.Name] = pt
		}
		for _, part := range []string{"deref", "route", "assemble", "exchange"} {
			v["core.sched_vms."+part] = phase["sched."+part].Seconds * 1000 / float64(phase["sched.compute"].Count)
		}
		prof.addShares(v)
		v["mpsim.pingpong_ns_per_msg"] = pingpong()
		if err := writeChromeTrace(traceFile(o, def.name), []*spanLog{tw.spans}, tw.tracer); err != nil {
			return nil, err
		}
	}

	if err := setUp(time.Now()); err != nil {
		return nil, err
	}
	v["setup_s"] = minOf(setups)
	if def.warm {
		v["core.sched_build_ms_p50"] = minOf(builds)
	} else {
		v["core.sched_build_ms_p50"] = bestRound(w.log.schedMs, c.roundOps)
	}
	v["core.sched_ns_per_elem"] = v["core.sched_build_ms_p50"] * 1e6 / elems
	v["run.ops_attempted"], v["run.ops_failed"] = float64(out.attempted), float64(out.failed)
	v["host.cpu_s"], v["host.rss_mb"] = cpuAndPeakRSS()
	return out, nil
}

func measureServe(o options) (*outcome, error) {
	v := map[string]float64{"run.loadavg_start": loadavg()}
	c := countsFor("serve-steady", o)
	kinds := serveKinds(o.seed)
	out := &outcome{v: v}
	var setups, cold, warm []float64
	n := 0
	// incarnate runs one daemon incarnation, replays its scripts through
	// the oracle and books what every one has.
	incarnate := func(c counts, setupOnly bool, spans *spanLog, onSection func(bool), start time.Time) (*serveRun, float64, error) {
		n++
		// A relative path keeps the socket name short of sun_path
		// however deep the checkout is.
		sock := filepath.Join(o.dir, fmt.Sprintf("serve-%d-%d.sock", os.Getpid(), n))
		r := &serveRun{seed: o.seed, kinds: kinds, counts: c, setupOnly: setupOnly, sock: sock, spans: spans, onSection: onSection}
		if err := r.run(start); err != nil {
			return nil, 0, err
		}
		if spans == nil {
			setups = append(setups, r.setupS)
			cold = append(cold, sum(r.openColdMs)/float64(len(r.openColdMs)))
			warm = append(warm, sum(r.openWarmMs)/float64(len(r.openWarmMs)))
		}
		attempted, failed, perMoveMs, err := r.replay()
		out.attempted += attempted
		out.failed += failed
		return r, perMoveMs, err
	}
	if _, _, err := incarnate(c, true, nil, nil, processStart); err != nil {
		return nil, err
	}

	prof := &cpuProfile{path: filepath.Join(o.dir, "cpu-serve-steady.prof")}
	var onSection func(bool)
	if o.trace {
		onSection = prof.hook
	}
	r, perMoveMs, err := incarnate(c, false, nil, onSection, time.Now())
	if err != nil {
		return nil, err
	}
	t0, opMs := r.pooled()
	common(v, opMs, t0, r.sectionEnd, c.roundOps, &r.mem)
	costS := 0.0
	for _, t := range r.tenants {
		costS += t.costS
	}
	v["vtime_ms_per_op"] = costS * 1000 / float64(len(opMs))
	v["serve.move_ms_p50"] = v["op_ms_p50"]
	v["serve.move_ms_p99"] = tail(opMs, 0.99)
	v["serve.overhead_ms_p50"] = v["op_ms_p50"] - perMoveMs
	v["serve.ops_per_batch"] = r.stats["serve_batched_ops_total"] / r.stats["serve_batches_total"]
	v["serve.cache_hit_rate"] = r.stats["serve_cache_hit_rate"]
	v["serve.cache_evictions"] = r.stats["serve_cache_evictions"]
	v["serve.refused"] = r.stats["serve_backpressure_total"] + r.stats["serve_session_refused_total"]
	v["serve.retries"] = float64(r.retries)

	if o.trace {
		tc := c
		tc.rounds = min(c.rounds, tracedRounds)
		spans := newSpanLog(time.Now(), "driver")
		world := spans.begin("world", -1)
		tr, _, err := incarnate(tc, false, spans, nil, time.Now())
		world.end()
		if err != nil {
			return nil, err
		}
		prof.addShares(v)
		_, tracedMs := tr.pooled()
		v["trace.overhead_pct"] = (bestRound(tracedMs, c.roundOps)/v["op_ms_p50"] - 1) * 100
		// The daemon takes no tracer through serve.Options{}, so the
		// in-world splits stay 0 here; the transport probe does not
		// depend on the workload.
		v["mpsim.pingpong_ns_per_msg"] = pingpong()
		logs := []*spanLog{spans}
		for _, t := range tr.tenants {
			logs = append(logs, t.spans)
		}
		if err := writeChromeTrace(traceFile(o, "serve-steady"), logs, nil); err != nil {
			return nil, err
		}
	}

	if _, _, err := incarnate(c, true, nil, nil, time.Now()); err != nil {
		return nil, err
	}
	v["setup_s"] = minOf(setups)
	v["serve.open_cold_ms"], v["serve.open_warm_ms"] = minOf(cold), minOf(warm)
	v["run.ops_attempted"], v["run.ops_failed"] = float64(out.attempted), float64(out.failed)
	v["host.cpu_s"], v["host.rss_mb"] = cpuAndPeakRSS()
	return out, nil
}
