// Command bench is the repository's benchmark: four closed-loop
// workloads, four end-to-end metrics each, and per-layer metrics read
// from outside the program.  See README.md for what is measured, how
// host noise is rejected, and why.
//
//	bash bench/run.sh                                  every workload, every untraced metric
//	bash bench/run.sh -trace 1                         … plus the traced run of each
//	bash bench/run.sh -aa 2                            A/A: two sets, gaps against the bounds
//	bash bench/run.sh --workload move-steady --seed 7 --seconds 10 --trace 0
//
// With -workload the process runs that one workload and ends its
// standard output with one JSON object (the form BENCHMARK.json's
// driver reads); without it, each workload runs in a fresh child
// process of the same binary, one after the other.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

var processStart = time.Now()

type metricDef struct {
	name, unit string
	bound      float64 // end-to-end only: relative worsening that is a regression
	lower      bool    // end-to-end only: lower is better
}

// aaBound is the gap -aa allows between runs of one seed.  Virtual time
// is then exact on the in-world workloads; the 0.02 in the table is for
// serve-steady, where which moves share a batch is not pinned, and for
// BENCHMARK.json's driver, which compares runs of different seeds.
func (d metricDef) aaBound(workload string) float64 {
	if d.name == "vtime_ms_per_op" && workload != "serve-steady" {
		return 0
	}
	return d.bound
}

var workloads = []string{"inspect-regular", "inspect-irregular", "move-steady", "serve-steady"}

// endToEnd is what a user of the system sees, the same on every
// workload.  BENCHMARK.json repeats names, units and bounds;
// bench_test.go keeps the two in step.
var endToEnd = []metricDef{
	{name: "op_ms_p50", unit: "ms", bound: 0.15, lower: true},
	{name: "ops_per_s", unit: "1/s", bound: 0.20},
	{name: "vtime_ms_per_op", unit: "vms", bound: 0.02, lower: true},
	{name: "setup_s", unit: "s", bound: 0.25, lower: true},
}

// tracedOnly metrics need the traced run; every other per-layer metric
// is also printed by an untraced run.
var tracedOnly = map[string]bool{
	"mpsim.pingpong_ns_per_msg": true, "trace.overhead_pct": true,
	"core.sched_vms.deref": true, "core.sched_vms.route": true,
	"core.sched_vms.assemble": true, "core.sched_vms.exchange": true,
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "host.allocs_per_op", unit: "count"},
		{name: "host.alloc_kb_per_op", unit: "kb"},
		{name: "host.gc_cycles_per_kop", unit: "count"},
		{name: "host.gc_pause_ms", unit: "ms"},
		{name: "host.cpu_s", unit: "s"},
		{name: "host.rss_mb", unit: "mb"},
		{name: "run.op_ms_p95", unit: "ms"},
		{name: "run.op_ms_p50_whole", unit: "ms"},
		{name: "run.ops_per_s_whole", unit: "1/s"},
		{name: "run.round_spread", unit: "ratio"},
		{name: "run.ops_attempted", unit: "count"},
		{name: "run.ops_failed", unit: "count"},
		{name: "run.loadavg_start", unit: "count"},
		{name: "mpsim.msgs_per_op", unit: "count"},
		{name: "mpsim.kb_per_op", unit: "kb"},
		{name: "mpsim.wall_ns_per_msg", unit: "ns"},
		{name: "mpsim.pingpong_ns_per_msg", unit: "ns"},
		{name: "core.sched_build_ms_p50", unit: "ms"},
		{name: "core.sched_ns_per_elem", unit: "ns"},
		{name: "core.sched_vms.deref", unit: "vms"},
		{name: "core.sched_vms.route", unit: "vms"},
		{name: "core.sched_vms.assemble", unit: "vms"},
		{name: "core.sched_vms.exchange", unit: "vms"},
		{name: "core.move_ms_p50", unit: "ms"},
		{name: "core.move_ns_per_byte", unit: "ns"},
		{name: "core.move_vms.pack", unit: "vms"},
		{name: "core.move_vms.ship", unit: "vms"},
		{name: "core.move_vms.local", unit: "vms"},
		{name: "core.move_vms.wait", unit: "vms"},
		{name: "core.move_vms.unpack", unit: "vms"},
		{name: "core.move_bytes_copied_per_op", unit: "count"},
		{name: "serve.move_ms_p50", unit: "ms"},
		{name: "serve.move_ms_p99", unit: "ms"},
		{name: "serve.open_cold_ms", unit: "ms"},
		{name: "serve.open_warm_ms", unit: "ms"},
		{name: "serve.overhead_ms_p50", unit: "ms"},
		{name: "serve.ops_per_batch", unit: "count"},
		{name: "serve.cache_hit_rate", unit: "ratio"},
		{name: "serve.cache_evictions", unit: "count"},
		{name: "serve.refused", unit: "count"},
		{name: "serve.retries", unit: "count"},
	}
	for _, s := range shareNames {
		name := "cpu_share." + s
		defs = append(defs, metricDef{name: name, unit: "%"})
		tracedOnly[name] = true
	}
	return append(defs, metricDef{name: "trace.overhead_pct", unit: "%"})
}()

// options are one workload run's settings.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	dir      string
	counts   counts // tests only: op counts in place of the workload's
}

// outcome is what one workload run measured.
type outcome struct {
	v                 map[string]float64
	attempted, failed int
}

func main() {
	var o options
	workload := flag.String("workload", "", "run this one workload in this process and end with the result as one JSON line")
	flag.Uint64Var(&o.seed, "seed", 1997, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed section on the recording host; sets its round count")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics, CPU profile, Chrome trace")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file (default <dir>/trace-<workload>.json)")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for the socket, the CPU profile and the trace")
	aa := flag.Int("aa", 0, "run the untraced set this many times and compare the runs against the bounds")
	flag.Parse()
	o.trace = *trace != 0

	if *workload == "" {
		os.Exit(parent(o, *aa))
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fatal(err)
	}
	out, err := runWorkload(*workload, o)
	if err != nil {
		fatal(err)
	}
	report(os.Stdout, *workload, o, out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func runWorkload(name string, o options) (*outcome, error) {
	if name == "serve-steady" {
		// Client, daemon and resident world are really concurrent.
		runtime.GOMAXPROCS(2)
		return measureServe(o)
	}
	def, err := inWorldDef(name, o.seed)
	if err != nil {
		return nil, err
	}
	// The serial engine runs one rank at a time by construction; a
	// second P only adds wake-up migration and doubles the spread.
	runtime.GOMAXPROCS(1)
	return measureInWorld(def, o)
}

// report prints every metric the run produced by name and unit, then
// the driver's JSON line: end-to-end metrics for an untraced run,
// per-layer metrics for a traced one.
func report(w io.Writer, workload string, o options, out *outcome) {
	fmt.Fprintf(w, "workload %s seed %d GOMAXPROCS %d\n", workload, o.seed, runtime.GOMAXPROCS(0))
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, map[string]jsonMetric{}}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "metric %-32s %16.6f %s\n", d.name, out.v[d.name], d.unit)
		if !o.trace {
			line.Metrics[d.name] = jsonMetric{out.v[d.name], d.unit}
		}
	}
	for _, d := range perLayer {
		if _, ok := out.v[d.name]; ok || !tracedOnly[d.name] {
			fmt.Fprintf(w, "metric %-32s %16.6f %s\n", d.name, out.v[d.name], d.unit)
		}
		if o.trace {
			line.Metrics[d.name] = jsonMetric{out.v[d.name], d.unit}
		}
	}
	if s := out.v["run.round_spread"]; s > 1.3 {
		fmt.Fprintf(w, "note: noisy host: the worst round ran %.2fx slower than the best one\n", s)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// child runs one workload in a fresh process of this binary, passes its
// metric lines through and returns them by name.
func child(self string, o options, workload string, trace bool) map[string]float64 {
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-dir", o.dir}
	if trace {
		args = append(args, "-trace", "1")
		if o.traceOut != "" {
			args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ".json")+"."+workload+".json")
		}
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	got := map[string]float64{}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && f[0] == "metric" {
			got[f[1]], _ = strconv.ParseFloat(f[2], 64)
		}
		if !strings.HasPrefix(sc.Text(), "{") {
			fmt.Println(sc.Text())
		}
	}
	if err := cmd.Wait(); err != nil {
		fatal(fmt.Errorf("%s: %w", workload, err))
	}
	return got
}

// parent runs every workload in a fresh child process, one after the
// other, and with sets > 0 compares that many untraced sets.
func parent(o options, sets int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if sets <= 0 {
		failed := 0.0
		for _, w := range workloads {
			failed += child(self, o, w, false)["run.ops_failed"]
			if o.trace {
				failed += child(self, o, w, true)["run.ops_failed"]
			}
			fmt.Println()
		}
		if failed > 0 {
			return 1
		}
		return 0
	}

	runs := make([]map[string]map[string]float64, sets)
	for s := range runs {
		runs[s] = map[string]map[string]float64{}
		for _, w := range workloads {
			fmt.Printf("# set %d of %d\n", s+1, sets)
			runs[s][w] = child(self, o, w, false)
			fmt.Println()
		}
	}
	code := 0
	fmt.Printf("%-18s %-16s %s\n", "workload", "metric", "values … gap bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			var vals []string
			for s := range runs {
				x := runs[s][w][d.name]
				lo, hi = math.Min(lo, x), math.Max(hi, x)
				vals = append(vals, strconv.FormatFloat(x, 'f', 6, 64))
			}
			gap, bound := (hi-lo)/lo, d.aaBound(w)
			verdict := "ok"
			if gap > bound {
				verdict, code = "OVER", 1
			}
			fmt.Printf("%-18s %-16s %s  gap %.4f bound %.2f %s\n", w, d.name, strings.Join(vals, " "), gap, bound, verdict)
		}
	}
	return code
}
