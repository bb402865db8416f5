package exp

import (
	"fmt"
	"math"
)

// csServerSweep is the server process counts of Figures 10-13.
var csServerSweep = []int{1, 2, 4, 8, 12, 16}

// csTable runs one client/server configuration per column and returns
// the five-row stacked breakdown of Figures 10-14.
func csTable(id, title, colHeader string, cols []int, notes []string, cfgAt func(col int) CSConfig) *Table {
	rows := []Row{
		{Label: "compute schedule"},
		{Label: "send matrix"},
		{Label: "HPF program"},
		{Label: "send/recv vector"},
		{Label: "total"},
	}
	for _, col := range cols {
		b := RunClientServer(cfgAt(col))
		for k, v := range []float64{b.Schedule, b.SendMatrix, b.Server, b.Vector, b.Total()} {
			rows[k].Values = append(rows[k].Values, ms(v))
		}
	}
	return &Table{ID: id, Title: title, Unit: "msec", ColHeader: colHeader, Cols: colLabels(cols), Rows: rows, Notes: notes}
}

// figureCS is the sweep over server process counts of Figures 10-13.
func figureCS(id, title string, clientProcs, vectors int, notes []string) *Table {
	return csTable(id, title, "server processes", csServerSweep, notes, func(sp int) CSConfig {
		return CSConfig{ClientProcs: clientProcs, ServerProcs: sp, Vectors: vectors}
	})
}

// Figure10 reproduces Figure 10: total time for a sequential client,
// server on four nodes with up to four processes per node, one vector.
func Figure10() *Table {
	return figureCS("Figure 10",
		"Client/server matrix-vector multiply, sequential client, 1 vector, Alpha farm + ATM",
		1, 1, []string{
			"expected shape: best total at 8 server processes; schedule time falls to ~4 processes then rises (ATM contention, all-to-all message count)",
		})
}

// Figure11 reproduces Figure 11: two-process client on two nodes.
func Figure11() *Table {
	return figureCS("Figure 11",
		"Client/server matrix-vector multiply, two-process client, 1 vector, Alpha farm + ATM",
		2, 1, []string{
			"expected shape: same as Figure 10 with a faster matrix send (two client NICs)",
		})
}

// Figure12 reproduces Figure 12: four-process client on four nodes.
func Figure12() *Table {
	return figureCS("Figure 12",
		"Client/server matrix-vector multiply, four-process client, 1 vector, Alpha farm + ATM",
		4, 1, []string{
			"expected shape: same as Figure 10 with the matrix send further parallelized",
		})
}

// Figure13 reproduces Figure 13: twenty vectors through a sequential
// client — amortizing the schedule and matrix-send overheads.
func Figure13() *Table {
	t := figureCS("Figure 13",
		"Client/server matrix-vector multiply, sequential client, 20 vectors, Alpha farm + ATM",
		1, 20, nil)
	// The paper reports a speedup of ~4.5 at 8 server processes over
	// computing the 20 products in the client.
	local := RunClientLocal(1, 20) * 20
	idx8 := indexOf(csServerSweep, 8)
	if idx8 >= 0 {
		speedup := ms(local) / t.Rows[4].Values[idx8]
		t.Notes = append(t.Notes,
			fmt.Sprintf("client-local compute of 20 vectors: %.0f msec -> speedup %.1f at 8 server processes (paper: 4.5)",
				ms(local), speedup))
	}
	return t
}

// Figure14 reproduces Figure 14: total time against the number of
// vectors for a sequential client and the best (eight-process) server.
func Figure14() *Table {
	return csTable("Figure 14",
		"Total time vs number of vectors, sequential client, 8-process server, Alpha farm + ATM",
		"vectors", []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}, []string{
			"expected shape: schedule and matrix-send components constant; per-vector components grow linearly",
		}, func(v int) CSConfig { return CSConfig{ClientProcs: 1, ServerProcs: 8, Vectors: v} })
}

// Figure15 reproduces Figure 15: the number of vectors that must be
// multiplied by the same matrix before using the server beats
// computing in the client, for one- and two-process clients.
func Figure15() *Table {
	servers := []int{2, 4, 8, 12, 16}
	clients := []int{1, 2}
	values := make([][]float64, len(clients))
	for ci, cp := range clients {
		values[ci] = make([]float64, len(servers))
		local := RunClientLocal(cp, 10)
		for si, sp := range servers {
			b := RunClientServer(CSConfig{ClientProcs: cp, ServerProcs: sp, Vectors: 10})
			overhead := b.Schedule + b.SendMatrix
			perVec := (b.Server + b.Vector) / 10
			if local <= perVec {
				values[ci][si] = nan() // never amortized
				continue
			}
			values[ci][si] = math.Ceil(overhead / (local - perVec))
		}
	}
	return &Table{
		ID:        "Figure 15",
		Title:     "Break-even number of exchanged vectors (client computes locally vs uses the HPF server), Alpha farm + ATM",
		Unit:      "vectors",
		ColHeader: "server processes",
		Cols:      colLabels(servers),
		Rows: []Row{
			{Label: "1 client process", Values: values[0]},
			{Label: "2 client processes", Values: values[1]},
		},
		Notes: []string{
			"'-' marks configurations whose overhead is never amortized (the paper shows none for a 2-process client with a 2-process server)",
			"expected shape: best break-even at the 8-process server; ~2 vectors for 1-client/4-server",
		},
	}
}

func nan() float64 { return math.NaN() }

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
