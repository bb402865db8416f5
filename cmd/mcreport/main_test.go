package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The goldens were captured from the separate table and figure
// binaries this one replaced, at their last commit (4cee522): Table 5 as
// JSON and Figure 10 as a plot.  Virtual time is deterministic, so they
// match byte for byte on any host.
func TestOnlyMatchesGoldens(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{[]string{"-only", "table5", "-format", "json"}, "testdata/table5.json"},
		{[]string{"-only", "figure10", "-format", "plot"}, "testdata/figure10.plot"},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v differs from %s:\n%s", tc.args, tc.golden, stdout.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-only", "table6"}, `no experiment "table6"`},
		{[]string{"-only", "table1", "-format", "xml"}, `no -format "xml"`},
		{[]string{"-format", "json"}, "-format applies to -only"},
		{[]string{"-table", "5"}, "flag provided but not defined"},
		{[]string{"table5"}, `unexpected argument "table5"`},
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
