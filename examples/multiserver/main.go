// multiserver realizes the paper's introduction scenario: an image
// processing client queries several parallel image-database servers;
// each server computes a partial output image over its own holdings,
// and the client combines the partials.  The combination uses the
// accumulate extension (MoveAdd): each server's contribution is summed
// straight into the client's output array through its own Meta-Chaos
// schedule — no intermediate buffers, no knowledge of server layouts.
//
// Run with:
//
//	go run ./examples/multiserver
package main

import (
	"fmt"

	"metachaos"
)

const (
	rows, cols = 16, 16
	serverA    = 3 // processes of the first database server
	serverB    = 2
)

func imageSet() *metachaos.SetOfRegions {
	return metachaos.NewSetOfRegions(metachaos.FullSection(metachaos.Shape{rows, cols}))
}

// server runs one image-database program: it "renders" a partial
// output image from its holdings and accumulates it into the client.
func server(name string, procs int, weight float64) metachaos.ProgramSpec {
	return metachaos.ProgramSpec{Name: name, Procs: procs, Body: func(p *metachaos.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())
		partial := metachaos.NewHPFArray(metachaos.Block2D(rows, cols, procs), p.Rank())
		// Each server contributes weight at every pixel it "has data
		// for" (here: all pixels, scaled, so the result is checkable).
		partial.FillGlobal(func(c []int) float64 {
			return weight * float64(metachaos.Shape{rows, cols}.Linear(c))
		})
		coupling, err := metachaos.CoupleByName(p, name, "client")
		if err != nil {
			panic(err)
		}
		sched, err := metachaos.ComputeSchedule(coupling,
			&metachaos.Spec{Lib: metachaos.HPF, Obj: partial, Set: imageSet(), Ctx: ctx},
			nil, metachaos.Cooperation)
		if err != nil {
			panic(err)
		}
		sched.MoveAddSend(partial)
	}}
}

func main() {
	var checksum float64
	stats := metachaos.Run(metachaos.Config{
		Machine: metachaos.AlphaFarmATM(),
		Programs: []metachaos.ProgramSpec{
			{Name: "client", Procs: 1, Body: func(p *metachaos.Proc) {
				ctx := metachaos.NewCtx(p, p.Comm())
				out, err := metachaos.NewMBPartiArray(metachaos.Block2D(rows, cols, 1), 0, 0)
				if err != nil {
					panic(err)
				}
				// One schedule per server; contributions accumulate in
				// arrival order, coordinated by the collective calls.
				for _, name := range []string{"dbA", "dbB"} {
					coupling, err := metachaos.CoupleByName(p, name, "client")
					if err != nil {
						panic(err)
					}
					sched, err := metachaos.ComputeSchedule(coupling, nil,
						&metachaos.Spec{Lib: metachaos.MBParti, Obj: out, Set: imageSet(), Ctx: ctx},
						metachaos.Cooperation)
					if err != nil {
						panic(err)
					}
					sched.MoveAddRecv(out)
				}
				for _, v := range out.Local() {
					checksum += v
				}
			}},
			server("dbA", serverA, 1.0),
			server("dbB", serverB, 0.5),
		},
	})

	// Every pixel g received (1.0 + 0.5) * g.
	want := 0.0
	for g := 0; g < rows*cols; g++ {
		want += 1.5 * float64(g)
	}
	fmt.Printf("combined image checksum: %.1f (want %.1f)\n", checksum, want)
	fmt.Printf("simulated: %.2f virtual ms, %d messages from %d server processes\n",
		stats.MakespanSeconds*1000, stats.TotalMsgs(), serverA+serverB)
}
