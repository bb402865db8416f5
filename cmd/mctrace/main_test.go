package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The goldens were captured from the two binaries this one replaced
// (this tool's predecessor and the separate profiler, "prof" below),
// built at their last commit (8e28a78), each by the command in its
// row; elastic.phases came later, from this tool at ce41760.  Virtual time is deterministic, so they match byte for byte on
// any host.
func TestViewsMatchGoldens(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string // and the parent's command that wrote it
	}{
		// prof -workload section -procs 4 -n 64 -iters 2 -format phases
		{[]string{"-workload", "section", "-procs", "4", "-n", "64", "-iters", "2", "-format", "phases"}, "section.phases"},
		// prof -workload figure10 -format collapsed   (-server-procs defaulted to 2)
		{[]string{"-workload", "figure10", "-procs", "2", "-format", "collapsed"}, "figure10.collapsed"},
		// mctrace -workload remap
		{[]string{"-workload", "remap"}, "remap.traffic"},
		// mctrace -workload clientserver -procs 2
		{[]string{"-workload", "clientserver", "-procs", "2"}, "clientserver.traffic"},
		// mctrace -workload elastic -procs 4 -seed 7 -format phases: the
		// crash-recovery timeline, captured before a second, never-run
		// recovery protocol was deleted from core.
		{[]string{"-workload", "elastic", "-procs", "4", "-seed", "7", "-format", "phases"}, "elastic.phases"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v differs from testdata/%s:\n%s", tc.args, tc.golden, stdout.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "table5"}, `no workload "table5"`},
		{[]string{"-format", "xml"}, `no -format "xml"`},
		{[]string{"-workload", "clientserver", "-crash", "1@0.1"}, "does not take crash faults"},
		{[]string{"-workload", "figure10", "-fault", "crashy"}, "does not take crash faults"},
		{[]string{"-workload", "elastic"}, "has no traffic view"},
		{[]string{"-workload", "elastic", "-format", "phases", "-reliable"}, "schedules its own crash"},
		{[]string{"-crash", "2"}, "want rank@time"},
		{[]string{"-fault", "gremlins"}, "gremlins"},
		{[]string{"-phases"}, "flag provided but not defined"},
		{[]string{"section"}, `unexpected argument "section"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stdout %q stderr %q, want stderr to contain %q", tc.args, stdout.String(), stderr.String(), tc.want)
		}
	}
}

// TestOutputFile covers -o: the file holds exactly what stdout would
// have, and an output that cannot be created or fully written is exit
// 1, never a silent short file.
func TestOutputFile(t *testing.T) {
	args := []string{"-workload", "remap", "-procs", "2"}
	var want, stderr bytes.Buffer
	if code := run(args, &want, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	path := filepath.Join(t.TempDir(), "remap.txt")
	var stdout bytes.Buffer
	stderr.Reset()
	if code := run(append(args, "-o", path), &stdout, &stderr); code != 0 {
		t.Fatalf("-o: exit %d: %s", code, stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("-o wrote %d bytes (stdout %d), want the %d stdout gets without it", len(got), stdout.Len(), want.Len())
	}

	bad := []string{filepath.Join(t.TempDir(), "no-such-dir", "x")}
	if _, err := os.Stat("/dev/full"); err == nil {
		bad = append(bad, "/dev/full") // every write fails with ENOSPC
	}
	for _, path := range bad {
		stdout.Reset()
		stderr.Reset()
		if code := run(append(args, "-o", path), &stdout, &stderr); code != 1 {
			t.Errorf("-o %s: exit %d, want 1 (stderr %q)", path, code, stderr.String())
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "mctrace: ") {
			t.Errorf("-o %s: stdout %q stderr %q", path, stdout.String(), stderr.String())
		}
	}
}

// TestMatrixAddsUpToPerRank reads a lossy reliable run's traffic view
// back: the message matrix is folded from the tracer's spans and the
// per-rank block from the run's statistics, so each matrix column must
// add up to the counter of the rank it is charged to — drops and
// rexmits to the sender (a lost ack to its acker), dup-discs to the
// receiver.  The run loses one ack, so the drop column also covers a
// drop no data packet accounts for.
func TestMatrixAddsUpToPerRank(t *testing.T) {
	args := []string{"-workload", "section", "-fault", "lossy", "-seed", "7", "-reliable"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	type faults struct{ drops, rexmits, dupDiscards int64 }
	perRank := map[int]faults{}
	columns := map[int]faults{}
	var links int
	var total, matrixDrops int64
	for _, line := range strings.Split(stdout.String(), "\n") {
		var r, from, to int
		var f faults
		var corrupt, timeouts, failed, msgs, size int64
		if _, err := fmt.Sscanf(line, "  rank %d: drops %d rexmit %d dup-disc %d corrupt-disc %d timeouts %d failed-sends %d",
			&r, &f.drops, &f.rexmits, &f.dupDiscards, &corrupt, &timeouts, &failed); err == nil {
			perRank[r] = f
			continue
		}
		if _, err := fmt.Sscanf(line, "  total: %d drops", &total); err == nil {
			continue
		}
		if _, err := fmt.Sscanf(line, "  %d -> %d: %d msgs %d B (drops %d, rexmit %d, dup-disc %d)",
			&from, &to, &msgs, &size, &f.drops, &f.rexmits, &f.dupDiscards); err == nil {
			links++
			matrixDrops += f.drops
			c := columns[from]
			c.drops += f.drops
			c.rexmits += f.rexmits
			columns[from] = c
			c = columns[to]
			c.dupDiscards += f.dupDiscards
			columns[to] = c
		}
	}
	if len(perRank) != 4 || links == 0 {
		t.Fatalf("read %d per-rank fault rows and %d faulty links from:\n%s", len(perRank), links, stdout.String())
	}
	for r, want := range perRank {
		if got := columns[r]; got != want {
			t.Errorf("rank %d: the matrix charges it %+v, the per-rank block %+v", r, got, want)
		}
	}
	if total != 6 || matrixDrops != total {
		t.Errorf("drops: the matrix adds up to %d, the per-rank block's total is %d, want 6 for both", matrixDrops, total)
	}

	path := filepath.Join(t.TempDir(), "lossy.traffic")
	stdout.Reset()
	stderr.Reset()
	if code := run(append(args, "-format", "traffic", "-o", path), &stdout, &stderr); code != 0 {
		t.Fatalf("-o: exit %d: %s", code, stderr.String())
	}
	var spans int
	if _, err := fmt.Sscanf(stderr.String(), "mctrace: wrote "+path+" (%d spans)", &spans); err != nil || spans == 0 {
		t.Errorf("-o reported %q, want a nonzero span count", stderr.String())
	}
}
