package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// side is one tree's ten runs of one workload: a value per run for the
// metrics a case varies, defaults for the rest.
type side struct {
	opMs, opsPerS []float64
	failed        float64
	drop          string // workload left out of run 3
}

var flat = []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}

func scale(vals []float64, f float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * f
	}
	return out
}

// runText prints run k of a side the way bench/run.sh does.
func runText(s side, k int) string {
	if s.opMs == nil {
		s.opMs = scale(flat, 3)
	}
	if s.opsPerS == nil {
		s.opsPerS = scale(flat, 300)
	}
	var b strings.Builder
	for _, w := range []string{"inspect-regular", "inspect-irregular", "move-steady", "serve-steady"} {
		if w == s.drop && k == 3 {
			continue
		}
		opMs, opsPerS, failed := 3.0, 300.0, 0.0
		if w == "move-steady" {
			opMs, opsPerS, failed = s.opMs[k], s.opsPerS[k], s.failed
		}
		fmt.Fprintf(&b, "workload %s seed 7 GOMAXPROCS 1\n", w)
		fmt.Fprintf(&b, "metric %-32s %16.6f ms\n", "op_ms_p50", opMs)
		fmt.Fprintf(&b, "metric %-32s %16.6f 1/s\n", "ops_per_s", opsPerS)
		fmt.Fprintf(&b, "metric %-32s %16.6f vms\n", "vtime_ms_per_op", 37.419048)
		fmt.Fprintf(&b, "metric %-32s %16.6f s\n", "setup_s", 1.2)
		fmt.Fprintf(&b, "metric %-32s %16.6f count\n", "run.ops_attempted", 5000.0)
		fmt.Fprintf(&b, "metric %-32s %16.6f count\n", "run.ops_failed", failed)
		fmt.Fprintf(&b, "note: noisy host: the worst round ran 1.86x slower than the best one\n\n")
	}
	return b.String()
}

func TestCompare(t *testing.T) {
	sp, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// A quiet host: ±1% around 3 ms.  A noisy one: ±25%.
	quiet := []float64{2.97, 3.03, 2.98, 3.02, 3.00, 2.99, 3.01, 3.00, 2.98, 3.02}
	noisy := []float64{2.3, 3.7, 2.5, 3.5, 3.0, 2.4, 3.6, 3.0, 2.6, 3.4}
	for _, tc := range []struct {
		name       string
		base, head side
		pairs      int // 10 unless set
		pass       bool
		want       string // regexp over the move-steady lines of the table
	}{
		{name: "no change", pass: true,
			want: `op_ms_p50 .* \+0\.0%  in 0 of 10 +unchanged\n.*ops_per_s .* unchanged\n.*vtime_ms_per_op .* unchanged`},
		{name: "lower is better: resolved regression",
			base: side{opMs: quiet}, head: side{opMs: scale(quiet, 1.3)},
			want: `op_ms_p50 .* \+30\.0%  in 10 of 10 +regressed`},
		{name: "lower is better: resolved gain", pass: true,
			base: side{opMs: quiet}, head: side{opMs: scale(quiet, 0.8)},
			want: `op_ms_p50 .* -20\.0%  in 0 of 10 +improved`},
		{name: "higher is better: resolved regression",
			base: side{opsPerS: scale(quiet, 100)}, head: side{opsPerS: scale(quiet, 70)},
			want: `ops_per_s .* -30\.0%  in 10 of 10 +regressed`},
		{name: "higher is better: resolved gain", pass: true,
			base: side{opsPerS: scale(quiet, 100)}, head: side{opsPerS: scale(quiet, 130)},
			want: `ops_per_s .* \+30\.0%  in 0 of 10 +improved`},
		{name: "three pairs resolve a gross regression", pairs: 3,
			base: side{opMs: quiet}, head: side{opMs: scale(quiet, 1.3)},
			want: `op_ms_p50 .* \+30\.0%  in 3 of 3 +regressed`},
		{name: "three pairs are too few to read a gain from", pairs: 3, pass: true,
			base: side{opMs: quiet}, head: side{opMs: scale(quiet, 0.8)},
			want: `op_ms_p50 .* -20\.0%  in 0 of 3 +unchanged`},
		{name: "resolved worsening inside the bound", pass: true,
			base: side{opMs: quiet}, head: side{opMs: scale(quiet, 1.1)},
			want: `op_ms_p50 .* \+10\.0%  in 10 of 10 +unchanged`},
		{name: "spread wider than the delta", pass: true,
			base: side{opMs: noisy}, head: side{opMs: scale(noisy, 1.2)},
			want: `op_ms_p50 .* \+20\.0%  in 10 of 10 +unresolved`},
		{name: "beyond the bound but the pairs disagree", pass: true,
			base: side{opMs: quiet}, head: side{opMs: []float64{3.9, 3.9, 2.9, 3.9, 3.9, 2.9, 3.9, 3.9, 3.9, 3.9}},
			want: `op_ms_p50 .* \+30\.0%  in 8 of 10 +unresolved`},
		{name: "spread wider than the bound is never unchanged", pass: true,
			base: side{opMs: noisy}, head: side{opMs: noisy},
			want: `op_ms_p50 .* \+0\.0%  in 0 of 10 +unresolved`},
		{name: "a larger share of operations fails",
			base: side{failed: 1}, head: side{failed: 2},
			want: `run.ops_failed +failed 10 of 50000 on base, 20 of 50000 on head`},
		{name: "the same share of operations fails", pass: true,
			base: side{failed: 2}, head: side{failed: 2},
			want: `setup_s .* unchanged\n[^\n]*serve-steady`},
		{name: "workload missing on the head side",
			head: side{drop: "move-steady"},
			want: `op_ms_p50 +missing from 0 base and 1 head runs`},
		{name: "workload missing on the base side",
			base: side{drop: "move-steady"},
			want: `op_ms_p50 +missing from 1 base and 0 head runs`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.pairs == 0 {
				tc.pairs = 10
			}
			for k := 0; k < tc.pairs; k++ {
				for name, s := range map[string]side{"base": tc.base, "head": tc.head} {
					path := filepath.Join(dir, fmt.Sprintf("%s-%d.txt", name, k+1))
					if err := os.WriteFile(path, []byte(runText(s, k)), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			base, head, err := readPairs(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(base) != tc.pairs || len(head) != tc.pairs {
				t.Fatalf("read %d base and %d head runs, want %d each", len(base), len(head), tc.pairs)
			}
			var out bytes.Buffer
			if got := compare(&out, sp, base, head); got != tc.pass {
				t.Errorf("pass = %v, want %v\n%s", got, tc.pass, out.String())
			}
			var lines []string
			for _, l := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(l, "move-steady") || strings.HasPrefix(l, "serve-steady") {
					lines = append(lines, l)
				}
			}
			if !regexp.MustCompile(tc.want).MatchString(strings.Join(lines, "\n")) {
				t.Errorf("table does not match %q:\n%s", tc.want, out.String())
			}
		})
	}
}

func TestNeeded(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 3, 9: 9, 10: 9, 11: 10, 14: 13, 20: 18} {
		if got := needed(n); got != want {
			t.Errorf("needed(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestReadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := readPairs(dir); err == nil {
		t.Error("an empty directory read as zero pairs")
	}
	os.WriteFile(filepath.Join(dir, "base-1.txt"), []byte(runText(side{}, 0)), 0o644)
	if _, _, err := readPairs(dir); err == nil {
		t.Error("a base run without its head run read as a pair")
	}
	os.WriteFile(filepath.Join(dir, "head-1.txt"), []byte("metric op_ms_p50 3.0 ms\n"), 0o644)
	if _, _, err := readPairs(dir); err == nil || !strings.Contains(err.Error(), "before any workload") {
		t.Errorf("a metric outside a workload: %v", err)
	}
	os.WriteFile(filepath.Join(dir, "head-1.txt"), []byte("workload w seed 7\nmetric op_ms_p50 fast ms\n"), 0o644)
	if _, _, err := readPairs(dir); err == nil {
		t.Error("a non-numeric value parsed")
	}
	bad := filepath.Join(dir, "bench.json")
	os.WriteFile(bad, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[{"name":"m","better":"faster"}]}`), 0o644)
	if _, err := readSpec(bad); err == nil || !strings.Contains(err.Error(), "lower or higher") {
		t.Errorf("better=faster: %v", err)
	}
	os.WriteFile(bad, []byte(`{}`), 0o644)
	if _, err := readSpec(bad); err == nil {
		t.Error("a spec with no workloads read")
	}
}
