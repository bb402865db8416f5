package mpsim

import (
	"math"
	"testing"
)

// Cost-model validation: the virtual timings must track the analytic
// LogGP-style expectations the model is built from.

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestPointToPointLatencyBandwidthModel(t *testing.T) {
	m := SP2()
	const bytes = 1 << 20
	st := RunSPMD(m, 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, make([]byte, bytes))
		} else {
			p.Recv(0, 1)
		}
	})
	// Receiver finishes at: sendOverhead + pack + wire + latency +
	// recvOverhead + unpack.
	want := m.SendOverhead + float64(bytes)*m.PerByteCPU +
		float64(bytes)/m.Bandwidth + m.Latency +
		m.RecvOverhead + float64(bytes)*m.PerByteCPU
	if !almostEqual(st.MakespanSeconds, want, 0.01) {
		t.Errorf("1MB transfer took %.6fs, analytic %.6fs", st.MakespanSeconds, want)
	}
}

func TestBackToBackSendsSerializeOnLink(t *testing.T) {
	m := SP2()
	const bytes = 1 << 19
	st := RunSPMD(m, 3, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, make([]byte, bytes))
			p.Send(2, 1, make([]byte, bytes))
		default:
			p.Recv(0, 1)
		}
	})
	// The second message queues behind the first on rank 0's outbound
	// link: completion >= 2 * wire time.
	floor := 2 * float64(bytes) / m.Bandwidth
	if st.MakespanSeconds < floor {
		t.Errorf("two %dB sends finished in %.6fs, below the serialized wire floor %.6fs",
			bytes, st.MakespanSeconds, floor)
	}
}

func TestSharedNodeLinkHalvesEffectiveBandwidth(t *testing.T) {
	m := AlphaFarmATM()
	const bytes = 1 << 20
	run := func(ppn int) float64 {
		return Run(Config{
			Machine: m,
			Programs: []ProgramSpec{{Name: "x", Procs: 4, ProcsPerNode: ppn, Body: func(p *Proc) {
				if p.Rank() < 2 {
					p.Send(p.World().WorldRank(2+p.Rank()), 1, make([]byte, bytes))
				} else {
					p.Recv(AnySource, 1)
				}
			}}},
		}).MakespanSeconds
	}
	separate := run(1) // each sender on its own node
	shared := run(2)   // both senders share node 0's link
	if shared < 1.5*separate {
		t.Errorf("shared-link run %.4fs vs separate %.4fs; expected ~2x serialization", shared, separate)
	}
}

func TestChargeAccountingExact(t *testing.T) {
	m := SP2()
	st := RunSPMD(m, 1, func(p *Proc) {
		p.ChargeFlops(1000)
		p.ChargeMemOps(500)
		p.ChargeDeref(10)
		p.ChargeSectionOps(200)
		p.ChargeCopy(4096)
	})
	want := 1000*m.FlopTime + 500*m.MemOpTime + 10*m.DerefTime +
		200*m.SectionOpTime + 4096/m.LocalCopyBandwidth
	if !almostEqual(st.MakespanSeconds, want, 1e-12) {
		t.Errorf("charges sum to %.9fs, want %.9fs", st.MakespanSeconds, want)
	}
}

func TestBcastScalesLogarithmically(t *testing.T) {
	m := SP2()
	run := func(n int) float64 {
		return RunSPMD(m, n, func(p *Proc) {
			p.Comm().Bcast(0, make([]byte, 8))
		}).MakespanSeconds
	}
	t4, t16 := run(4), run(16)
	// Binomial tree: depth 2 -> 4 for small messages; the ratio should
	// be ~2, certainly below the linear ratio 4.
	if t16 > 3*t4 {
		t.Errorf("bcast(16)=%.6fs vs bcast(4)=%.6fs: worse than logarithmic", t16, t4)
	}
	if t16 <= t4 {
		t.Errorf("bcast(16)=%.6fs not slower than bcast(4)=%.6fs", t16, t4)
	}
}
