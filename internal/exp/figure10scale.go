// The scaled Figure-10 workload: the paper's client/server coupled
// matvec, grown from its 2+8-process measurement to worlds of a
// thousand-plus ranks.  This is the scaling benchmark for the sharded
// mpsim scheduler — the simulated structure (schedule handshake, then
// a vector loop of scatter / server matvec / halo shift / gather) is
// the same as Figure 10's, but the arrays are plain slices moved with
// raw sends, so host time is dominated by the simulator and the
// servers' real floating-point work rather than schedule construction.
package exp

import (
	"hash/fnv"

	"metachaos/internal/codec"
	"metachaos/internal/mpsim"
)

// Figure10ScaleConfig sizes a scaled Figure-10-style run.
type Figure10ScaleConfig struct {
	ClientProcs int
	ServerProcs int
	Vectors     int
	// Rows and Band size each server's local band-matrix block; the
	// per-round compute is Rows*Band multiply-adds per server.
	Rows, Band int
}

// Figure10ScaleResult carries the run's virtual time and a
// fingerprint of the result stream (for determinism checks and to
// keep the compute from being optimized away).
type Figure10ScaleResult struct {
	Makespan   float64
	ResultHash uint64
}

const f10sTag = 0x60000

// Figure10Scale runs the scaled client/server workload and returns
// its virtual makespan plus a result fingerprint.  Same config, same
// result, independent of shard count and host parallelism.
func Figure10Scale(cfg Figure10ScaleConfig) Figure10ScaleResult {
	if cfg.Rows == 0 {
		cfg.Rows = 64
	}
	if cfg.Band == 0 {
		cfg.Band = 128
	}
	perClient := cfg.ServerProcs / cfg.ClientProcs
	if perClient*cfg.ClientProcs != cfg.ServerProcs {
		panic("exp: Figure10Scale needs ClientProcs | ServerProcs")
	}
	var res Figure10ScaleResult
	st := mpsim.Run(mpsim.Config{
		Machine: mpsim.AlphaFarmATM(),
		Programs: []mpsim.ProgramSpec{
			{Name: "client", Procs: cfg.ClientProcs, ProcsPerNode: 1, Body: func(p *mpsim.Proc) {
				union := p.World()
				me := p.Rank()
				first := cfg.ClientProcs + me*perClient // world rank of first owned server
				// Schedule handshake: one descriptor per owned server,
				// acknowledged before the vector loop (Figure 10's
				// schedule phase in miniature).
				var w codec.Writer
				w.PutInt64(int64(cfg.Rows))
				w.PutInt64(int64(cfg.Band))
				for s := 0; s < perClient; s++ {
					union.Send(first+s, f10sTag, w.Bytes())
				}
				for s := 0; s < perClient; s++ {
					union.Recv(first+s, f10sTag+1)
				}
				// Vector loop: scatter x chunks, gather y chunks.
				x := make([]byte, cfg.Rows*8)
				h := fnv.New64a()
				for v := 0; v < cfg.Vectors; v++ {
					for i := range x {
						x[i] = byte(v + i + me)
					}
					for s := 0; s < perClient; s++ {
						union.Send(first+s, f10sTag+2, x)
					}
					for s := 0; s < perClient; s++ {
						y, _ := union.Recv(first+s, f10sTag+3)
						h.Write(y)
					}
				}
				// Fold every client's fingerprint at client rank 0, in
				// rank order, so the result is one world-level hash.
				parts := p.Comm().Allgather(h.Sum(nil))
				if me == 0 {
					g := fnv.New64a()
					for _, part := range parts {
						g.Write(part)
					}
					res.ResultHash = g.Sum64()
				}
			}},
			{Name: "server", Procs: cfg.ServerProcs, ProcsPerNode: 1, Body: func(p *mpsim.Proc) {
				union := p.World()
				me := p.Rank()
				client := me / perClient // client program rank == world rank
				cfgMsg, _ := union.Recv(client, f10sTag)
				rd := codec.NewReader(cfgMsg)
				rows, band := int(rd.Int64()), int(rd.Int64())
				union.Send(client, f10sTag+1, nil)

				// Local band-matrix block, deterministic contents.
				a := make([]float64, rows*band)
				for i := range a {
					a[i] = float64((i*7+me*3)%13) - 6
				}
				y := make([]float64, rows)
				halo := make([]byte, 8*8) // 8-value boundary exchange
				c := p.Comm()
				for v := 0; v < cfg.Vectors; v++ {
					xb, _ := union.Recv(client, f10sTag+2)
					// y = A*x over the band: real host flops, charged
					// to the virtual clock like hpfrt.MatVec charges.
					for i := 0; i < rows; i++ {
						sum := 0.0
						row := a[i*band : (i+1)*band]
						for j, aij := range row {
							sum += aij * float64(xb[(i+j)%len(xb)])
						}
						y[i] = sum
					}
					p.ChargeFlops(2 * rows * band)
					// Halo shift with ring neighbors (intra-program,
					// overwhelmingly intra-shard traffic).
					next := (me + 1) % c.Size()
					prev := (me + c.Size() - 1) % c.Size()
					c.Send(next, v, halo)
					c.Recv(prev, v)
					var w codec.Writer
					for i := 0; i < rows; i++ {
						w.PutFloat64(y[i])
					}
					union.Send(client, f10sTag+3, w.Bytes())
				}
			}},
		},
	})
	res.Makespan = st.MakespanSeconds
	return res
}
