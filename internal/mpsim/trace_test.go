package mpsim

import (
	"strings"
	"testing"
)

func tracedRun(t *testing.T) *Stats {
	t.Helper()
	return Run(Config{
		Machine: SP2(),
		Trace:   true,
		Programs: []ProgramSpec{{Name: "t", Procs: 3, Body: func(p *Proc) {
			c := p.Comm()
			if c.Rank() == 0 {
				c.Send(1, 1, make([]byte, 100))
				c.Send(2, 1, make([]byte, 200))
			} else {
				c.Recv(0, 1)
			}
		}}},
	})
}

func TestTraceRecordsSendsAndRecvs(t *testing.T) {
	st := tracedRun(t)
	if st.Trace == nil {
		t.Fatal("trace missing")
	}
	sends, recvs := 0, 0
	for _, e := range st.Trace.Events {
		if e.Kind == EvSend {
			sends++
		}
		if e.Kind == EvRecv {
			recvs++
			if e.Rank != 1 && e.Rank != 2 {
				t.Errorf("recv recorded on rank %d", e.Rank)
			}
			if e.Peer != 0 {
				t.Errorf("recv peer %d, want 0", e.Peer)
			}
		}
	}
	if sends != 2 || recvs != 2 {
		t.Errorf("sends=%d recvs=%d, want 2 and 2", sends, recvs)
	}
}

func TestTraceByRankAndTimeline(t *testing.T) {
	st := tracedRun(t)
	var r0 []Event
	for _, e := range st.Trace.Events {
		if e.Rank == 0 {
			r0 = append(r0, e)
		}
	}
	if len(r0) != 2 || r0[0].Kind != EvSend || r0[0].Bytes != 100 || r0[1].Bytes != 200 {
		t.Errorf("rank 0 events: %+v", r0)
	}
	if r0[1].Time < r0[0].Time {
		t.Error("events out of time order within a rank")
	}
	tl := st.Trace.Timeline()
	if !strings.Contains(tl, "send") || !strings.Contains(tl, "recv") || !strings.Contains(tl, "100 B") {
		t.Errorf("timeline missing fields:\n%s", tl)
	}
	if lines := strings.Count(tl, "\n"); lines != 4 {
		t.Errorf("timeline has %d lines, want 4", lines)
	}
}

func TestTraceDeterministic(t *testing.T) {
	a := tracedRun(t).Trace.Timeline()
	b := tracedRun(t).Trace.Timeline()
	if a != b {
		t.Errorf("traces differ across identical runs:\n%s\nvs\n%s", a, b)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	st := RunSPMD(Ideal(), 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Comm().Send(1, 1, nil)
		} else {
			p.Comm().Recv(0, 1)
		}
	})
	if st.Trace != nil {
		t.Error("trace present without Config.Trace")
	}
}
