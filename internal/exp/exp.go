// Package exp implements the paper's evaluation: one function per
// table and figure, each returning a structured result that
// cmd/mcreport prints and the root benchmarks re-run.  Workload sizes, machine profiles and process
// counts follow Section 5 of the paper; the tables embed the paper's
// published numbers so the output shows paper-vs-measured side by
// side.
//
// Every experiment is the same measurement — build a schedule once,
// time it, reuse it N times, time that — written in harness.go's
// helpers: timePhase / timeIters / perIter between barriers, must and
// mustSchedule for constructors that cannot fail on a static
// configuration, and sweepSP2 to repeat an SPMD body over process
// counts.  A sweep guarantees three things: rank 0 alone publishes the
// body's values (no shared write under the sharded scheduler), the
// series come back in msec, and each process count is an independent
// deterministic simulation, so neither the order of runs nor anything
// run before them can change a number.
package exp

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table is one reproduced table or figure series.
type Table struct {
	// ID is the paper's label, e.g. "Table 2" or "Figure 10".
	ID string
	// Title describes the experiment.
	Title string
	// Unit is the unit of every value (usually "msec").
	Unit string
	// ColHeader names the column dimension (e.g. "processors").
	ColHeader string
	// Cols are the column labels.
	Cols []string
	// Rows are the measured series.
	Rows []Row
	// Notes carries the expected qualitative shape from the paper.
	Notes []string
}

// Row is one measured series with the paper's reference values.
type Row struct {
	Label string
	// Values are this reproduction's measurements.
	Values []float64
	// Paper are the published values (nil when the paper gives only a
	// figure, not numbers).
	Paper []float64
}

// Format renders the table as aligned text with measured and paper
// values interleaved.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "(values in %s; 'paper' rows are the published IPPS'97 numbers)\n\n", t.Unit)

	width := 12
	for _, c := range t.Cols {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	label := 34
	fmt.Fprintf(&b, "%-*s", label, t.ColHeader)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", label+width*len(t.Cols)) + "\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", label, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%*s", width, formatVal(v))
		}
		b.WriteString("\n")
		if r.Paper != nil {
			fmt.Fprintf(&b, "%-*s", label, "  (paper)")
			for _, v := range r.Paper {
				fmt.Fprintf(&b, "%*s", width, formatVal(v))
			}
			b.WriteString("\n")
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values for plotting tools:
// a header row, one row per measured series, and "(paper)" rows for
// the published numbers.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", csvEscape(t.ColHeader))
	for _, c := range t.Cols {
		fmt.Fprintf(&b, ",%s", csvEscape(c))
	}
	b.WriteString("\n")
	writeRow := func(label string, vals []float64) {
		fmt.Fprintf(&b, "%s", csvEscape(label))
		for _, v := range vals {
			if v != v { // NaN
				b.WriteString(",")
			} else {
				fmt.Fprintf(&b, ",%g", v)
			}
		}
		b.WriteString("\n")
	}
	for _, r := range t.Rows {
		writeRow(r.Label, r.Values)
		if r.Paper != nil {
			writeRow(r.Label+" (paper)", r.Paper)
		}
	}
	return b.String()
}

// JSON renders the table as a single-line JSON object, so printing
// several tables yields JSON-lines output that scripted consumers can
// split on newlines.  NaN marks absent cells in Values; JSON has no
// NaN, so absent cells are encoded as null.
func (t *Table) JSON() string {
	type jsonRow struct {
		Label  string     `json:"label"`
		Values []*float64 `json:"values"`
		Paper  []*float64 `json:"paper,omitempty"`
	}
	nullable := func(vals []float64) []*float64 {
		if vals == nil {
			return nil
		}
		out := make([]*float64, len(vals))
		for i := range vals {
			if v := vals[i]; v == v {
				out[i] = &v
			}
		}
		return out
	}
	doc := struct {
		ID        string    `json:"id"`
		Title     string    `json:"title"`
		Unit      string    `json:"unit"`
		ColHeader string    `json:"col_header"`
		Cols      []string  `json:"cols"`
		Rows      []jsonRow `json:"rows"`
		Notes     []string  `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Unit, t.ColHeader, t.Cols, nil, t.Notes}
	for _, r := range t.Rows {
		doc.Rows = append(doc.Rows, jsonRow{r.Label, nullable(r.Values), nullable(r.Paper)})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return string(b)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}

func formatVal(v float64) string {
	switch {
	case v != v: // NaN marks absent cells
		return "-"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
