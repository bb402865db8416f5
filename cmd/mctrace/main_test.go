package main

import (
	"bytes"
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
