// Command benchdiff compares a benchmark run against a committed
// BENCH_<date>.json baseline and fails on performance regressions: a
// gated benchmark more than -max-regress slower in ns/op, any
// allocs/op increase (allocation counts are deterministic, so any
// growth is a real change), or a gated benchmark missing from the new
// run.  scripts/benchdiff.sh wires it into CI.
//
// The current run is read from a file argument or stdin ("-"), as
// either mcbench JSON or raw `go test -bench -benchmem` text (sniffed
// by the first byte):
//
//	go test -run '^$' -bench 'Table5' -benchmem -count 3 . | benchdiff -baseline BENCH_2026-08-06.json -
//	benchdiff -baseline BENCH_2026-08-06.json current.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"

	"metachaos/internal/benchfmt"
)

func main() {
	baseline := flag.String("baseline", "", "committed baseline snapshot (required)")
	filter := flag.String("filter", "Table5|MovePack|MoveOverlap", "regexp naming the gated benchmarks")
	maxRegress := flag.Float64("max-regress", 0.10, "allowed fractional ns/op growth before failing")
	zeroAlloc := flag.String("zero-alloc", "MovePack$|MoveOverlap$",
		"regexp naming benchmarks whose allocs/op must be exactly 0 (the pooled data plane's hard gate); empty disables")
	flag.Parse()

	if *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline is required")
		os.Exit(2)
	}
	match, err := regexp.Compile(*filter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: bad -filter: %v\n", err)
		os.Exit(2)
	}
	var zeroMatch *regexp.Regexp
	if *zeroAlloc != "" {
		if zeroMatch, err = regexp.Compile(*zeroAlloc); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: bad -zero-alloc: %v\n", err)
			os.Exit(2)
		}
	}
	base, err := benchfmt.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	var in io.Reader
	switch arg := flag.Arg(0); arg {
	case "", "-":
		in = os.Stdin
	default:
		f, err := os.Open(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	cur, err := readCurrent(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: reading current run: %v\n", err)
		os.Exit(2)
	}
	if len(cur.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: current run has no benchmark results")
		os.Exit(2)
	}

	d := benchfmt.Diff(base, cur, match, *maxRegress)
	if len(d.Compared) == 0 && len(d.Missing) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: filter %q matches nothing in %s — an empty gate gates nothing\n", *filter, *baseline)
		os.Exit(2)
	}
	if base.CPU != "" && cur.CPU != "" && base.CPU != cur.CPU {
		fmt.Printf("note: baseline CPU %q != current CPU %q; ns/op comparison is cross-machine\n", base.CPU, cur.CPU)
	}
	if base.HostCPUs != 0 {
		fmt.Printf("baseline host: %d cpus, mpsim shards %s\n", base.HostCPUs, orAuto(base.MpsimShards))
	}
	if cur.HostCPUs != 0 && (cur.HostCPUs != base.HostCPUs || cur.MpsimShards != base.MpsimShards) {
		fmt.Printf("current host:  %d cpus, mpsim shards %s\n", cur.HostCPUs, orAuto(cur.MpsimShards))
	}
	// Raw go-test text carries no host metadata, so fall back to the
	// machine benchdiff itself is running on — the same machine that
	// just ran the benchmarks in every CI and local workflow.
	curCPUs := cur.HostCPUs
	if curCPUs == 0 {
		curCPUs = runtime.NumCPU()
	}
	if base.HostCPUs != 0 && base.HostCPUs != curCPUs {
		fmt.Printf("WARNING: baseline %s was recorded on a %d-cpu host but this run is on %d cpus.\n",
			*baseline, base.HostCPUs, curCPUs)
		fmt.Printf("WARNING: virtual-time costs are host-independent, but wall-clock ns/op is not;\n")
		fmt.Printf("WARNING: treat any ns/op delta below with suspicion and re-record the baseline\n")
		fmt.Printf("WARNING: (scripts/bench.sh -f) before trusting this gate on the new host shape.\n")
	}
	fmt.Printf("baseline %s, gate: ns/op +%.0f%%, allocs/op +runtime jitter (2e-4, at most 128)\n", *baseline, *maxRegress*100)
	for _, c := range d.Compared {
		fmt.Printf("  %-28s ns/op %12.0f -> %12.0f (%+6.1f%%)   allocs/op %8.0f -> %8.0f\n",
			c.Name, c.BaseNs, c.NewNs, 100*(c.NewNs/c.BaseNs-1), c.BaseAllocs, c.NewAllocs)
	}
	for _, name := range d.Missing {
		fmt.Printf("  %-28s MISSING from current run\n", name)
	}
	// The pooled-move benchmarks carry a hard absolute gate on top of
	// the baseline diff: steady-state moves must allocate NOTHING.  A
	// baseline recorded with a leak must not grandfather it in.
	var zeroViolations []string
	if zeroMatch != nil {
		matched := false
		for name, r := range cur.Best() {
			if !zeroMatch.MatchString(name) {
				continue
			}
			matched = true
			if r.AllocsPerOp != 0 {
				zeroViolations = append(zeroViolations,
					fmt.Sprintf("%s: allocs/op = %v, want exactly 0 (zero-alloc gate)", name, r.AllocsPerOp))
			} else {
				fmt.Printf("  %-28s allocs/op 0 (zero-alloc gate ok)\n", name)
			}
		}
		if !matched {
			zeroViolations = append(zeroViolations,
				fmt.Sprintf("no current benchmark matches -zero-alloc %q — an empty gate gates nothing", *zeroAlloc))
		}
	}
	if !d.OK() || len(zeroViolations) > 0 {
		fmt.Println("FAIL: performance regressions:")
		for _, g := range d.Regressions {
			fmt.Printf("  %s\n", g)
		}
		for _, name := range d.Missing {
			fmt.Printf("  %s: gated benchmark missing from current run\n", name)
		}
		for _, v := range zeroViolations {
			fmt.Printf("  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("OK: no regressions")
}

// orAuto renders the MPSIM_SHARDS setting, "" meaning automatic.
func orAuto(s string) string {
	if s == "" {
		return "auto"
	}
	return s
}

// readCurrent sniffs JSON (an mcbench snapshot) vs text (raw go test
// output) by the first non-space byte.
func readCurrent(r io.Reader) (*benchfmt.Report, error) {
	br := bufio.NewReader(r)
	for {
		b, err := br.Peek(1)
		if err != nil {
			return nil, fmt.Errorf("empty input: %w", err)
		}
		switch b[0] {
		case ' ', '\t', '\n', '\r':
			br.Discard(1)
			continue
		case '{':
			return benchfmt.Read(br)
		default:
			return benchfmt.ParseGotest(br)
		}
	}
}
