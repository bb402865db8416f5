// Command benchdiff compares paired runs of the repository's benchmark
// (bench/run.sh) on two trees and says, per workload and end-to-end
// metric, whether the head tree regressed.  scripts/ab.sh produces the
// runs and calls it.
//
//	benchdiff BENCHMARK.json <runs-dir>
//
// <runs-dir> holds the standard output of N alternating pairs of runs
// as base-1.txt, head-1.txt, base-2.txt, head-2.txt, ….  The workloads,
// the end-to-end metrics, which direction is better and the bound by
// which each may worsen are read from BENCHMARK.json.
//
// A difference is resolved when at least nine tenths of the pairs agree
// on its direction and the medians differ by more than the distance
// between the quartiles of the base side's own runs.  A resolved
// worsening beyond the bound is "regressed"; a resolved gain over at
// least ten pairs is "improved"; a median within the bound on a metric whose base spread
// is also within the bound is "unchanged"; everything else is
// "unresolved" — the pairs run cannot tell.  The exit status is 1 when
// a metric regressed, when a larger share of operations failed on the
// head side, or when a run lacks a workload or a metric; 2 when the
// input cannot be read.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one bench/run.sh output: workload -> metric -> value.
type run map[string]map[string]float64

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff BENCHMARK.json <runs-dir>")
		os.Exit(2)
	}
	sp, err := readSpec(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	base, head, err := readPairs(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if !compare(os.Stdout, sp, base, head) {
		os.Exit(1)
	}
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp := &spec{}
	if err := json.Unmarshal(b, sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s names no workloads or no end_to_end metrics", path)
	}
	for _, m := range sp.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, m.Name, m.Better)
		}
	}
	return sp, nil
}

// readPairs loads base-K.txt and head-K.txt for K = 1, 2, … until a
// base file is missing.
func readPairs(dir string) (base, head []run, err error) {
	for k := 1; ; k++ {
		b, err := readRun(filepath.Join(dir, fmt.Sprintf("base-%d.txt", k)))
		if os.IsNotExist(err) && k > 1 {
			return base, head, nil
		}
		if err != nil {
			return nil, nil, err
		}
		h, err := readRun(filepath.Join(dir, fmt.Sprintf("head-%d.txt", k)))
		if err != nil {
			return nil, nil, err
		}
		base, head = append(base, b), append(head, h)
	}
}

func readRun(path string) (run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := parseRun(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// parseRun reads the `workload <name> …` and `metric <name> <value>
// <unit>` lines of one run; every other line is commentary.
func parseRun(r io.Reader) (run, error) {
	out := run{}
	var cur map[string]float64
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) >= 2 && f[0] == "workload":
			cur = map[string]float64{}
			out[f[1]] = cur
		case len(f) == 4 && f[0] == "metric":
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("metric %s: %w", f[1], err)
			}
			if cur == nil {
				return nil, fmt.Errorf("metric %s before any workload line", f[1])
			}
			cur[f[1]] = v
		}
	}
	return out, sc.Err()
}

// compare prints the table and reports whether the head side passes.
func compare(w io.Writer, sp *spec, base, head []run) bool {
	n := len(base)
	ok := true
	fmt.Fprintf(w, "%d pairs; a difference is resolved when >= %d of them agree and the medians differ by more than the base side's quartile distance\n\n",
		n, needed(n))
	fmt.Fprintf(w, "%-18s %-16s %-34s %-34s %8s  %-16s %s\n",
		"workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "worse", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			b, bad := column(base, wl.Name, m.Name)
			h, hbad := column(head, wl.Name, m.Name)
			if bad+hbad > 0 {
				fmt.Fprintf(w, "%-18s %-16s missing from %d base and %d head runs\n", wl.Name, m.Name, bad, hbad)
				ok = false
				continue
			}
			v := judge(m, b, h)
			fmt.Fprintf(w, "%-18s %-16s %-34s %-34s %+7.1f%%  %-16s %s\n", wl.Name, m.Name,
				spread(b), spread(h), 100*v.delta, fmt.Sprintf("in %d of %d", v.worse, n), v.verdict)
			if v.verdict == "regressed" {
				ok = false
			}
		}
		bf, ba := sum(base, wl.Name, "run.ops_failed"), sum(base, wl.Name, "run.ops_attempted")
		hf, ha := sum(head, wl.Name, "run.ops_failed"), sum(head, wl.Name, "run.ops_attempted")
		// Cross-multiplied so that a side with nothing attempted
		// compares as a share of zero, not NaN.
		if hf*ba > bf*ha {
			fmt.Fprintf(w, "%-18s %-16s failed %g of %g on base, %g of %g on head: a larger share fails\n",
				wl.Name, "run.ops_failed", bf, ba, hf, ha)
			ok = false
		}
	}
	return ok
}

// needed is the number of pairs that must agree: nine tenths of those
// run, rounded up.
func needed(n int) int { return (9*n + 9) / 10 }

// minGainPairs is the fewest pairs a gain is read from.  A regression
// must also exceed its bound, which a few pairs of noise rarely do; a
// gain has no such floor, and two or three pairs agree by chance.
const minGainPairs = 10

type verdict struct {
	delta   float64 // (head median - base median) / base median
	worse   int     // pairs in which head is strictly worse than base
	verdict string
}

func judge(m metricSpec, base, head []float64) verdict {
	n := len(base)
	worse, better := 0, 0
	for i := range base {
		d := head[i] - base[i]
		if m.Better == "higher" {
			d = -d
		}
		switch {
		case d > 0:
			worse++
		case d < 0:
			better++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	diff := hmed - bmed
	v := verdict{delta: diff / bmed, worse: worse}
	worsening := v.delta
	if m.Better == "higher" {
		worsening = -worsening
	}
	beyondSpread := math.Abs(diff) > bq3-bq1
	switch {
	case worse >= needed(n) && beyondSpread && worsening > m.Bound:
		v.verdict = "regressed"
	case n >= minGainPairs && better >= needed(n) && beyondSpread:
		v.verdict = "improved"
	case worsening <= m.Bound && bq3-bq1 <= m.Bound*math.Abs(bmed):
		v.verdict = "unchanged"
	default:
		v.verdict = "unresolved"
	}
	return v
}

// column collects one metric of one workload over the runs and counts
// the runs that lack it.
func column(runs []run, workload, metric string) (vals []float64, missing int) {
	for _, r := range runs {
		v, ok := r[workload][metric]
		if !ok {
			missing++
		}
		vals = append(vals, v)
	}
	return vals, missing
}

func sum(runs []run, workload, metric string) float64 {
	vals, _ := column(runs, workload, metric)
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// quartiles are the 25th, 50th and 75th percentiles, interpolated
// linearly between order statistics.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func spread(vals []float64) string {
	q1, med, q3 := quartiles(vals)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", med, q1, q3)
}
