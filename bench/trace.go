package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"

	"metachaos"
)

// Driver spans: recorded from the benchmark's own files around the
// calls into each layer, kept in memory, written out at exit.  A nil
// *spanLog (every untraced run) records nothing.

type spanRec struct {
	name       string
	start, end time.Duration // since the log's origin
	parent     int32         // index of the enclosing span, -1 at top level
	op         int32         // op id the span belongs to, -1 outside ops
}

// spanLog is one goroutine's span record.
type spanLog struct {
	origin time.Time
	lane   string
	recs   []spanRec
	open   []int32
}

type span struct {
	log *spanLog
	idx int32
}

func newSpanLog(origin time.Time, lane string) *spanLog {
	return &spanLog{origin: origin, lane: lane, recs: make([]spanRec, 0, 1<<16)}
}

func (l *spanLog) begin(name string, op int) span {
	if l == nil {
		return span{}
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	idx := int32(len(l.recs))
	l.recs = append(l.recs, spanRec{name: name, start: time.Since(l.origin), parent: parent, op: int32(op)})
	l.open = append(l.open, idx)
	return span{l, idx}
}

func (s span) end() {
	if s.log == nil {
		return
	}
	s.log.recs[s.idx].end = time.Since(s.log.origin)
	s.log.open = s.log.open[:len(s.log.open)-1]
}

// pingpong times the simulated transport alone: two ranks bounce an
// 8-byte message, so one round trip is two sends, two receives and the
// scheduler hand-offs between them.  It returns wall nanoseconds per
// message, the best of several bursts.
func pingpong() float64 {
	const bursts, trips = 7, 4000
	best := math.Inf(1)
	metachaos.RunSPMD(metachaos.SP2(), 2, func(p *metachaos.Proc) {
		buf := make([]byte, 8)
		peer := 1 - p.Rank()
		for b := 0; b < bursts; b++ {
			p.Comm().Barrier()
			start := time.Now()
			for i := 0; i < trips; i++ {
				if p.Rank() == 0 {
					p.Send(peer, 1, buf)
					p.Recv(peer, 1)
				} else {
					p.Recv(peer, 1)
					p.Send(peer, 1, buf)
				}
			}
			if ns := float64(time.Since(start)) / (2 * trips); p.Rank() == 0 && ns < best {
				best = ns
			}
		}
	})
	return best
}

// Chrome trace-event output: the driver's wall-clock spans under one
// process, the program's virtual-time spans (one thread per rank) under
// another, in one file chrome://tracing and Perfetto load.

// maxVirtualSpans caps the program spans written, so the file stays
// loadable; the driver's own spans are always complete.
const maxVirtualSpans = 100000

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func writeChromeTrace(path string, logs []*spanLog, tracer *metachaos.Tracer) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			w.WriteString(",")
		}
		first = false
		return enc.Encode(ev)
	}
	meta := func(pid, tid int, kind, name string) error {
		return emit(chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
	}
	w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	if err := meta(1, 0, "process_name", "driver (wall clock)"); err != nil {
		return err
	}
	for tid, l := range logs {
		if l == nil {
			continue
		}
		if err := meta(1, tid, "thread_name", l.lane); err != nil {
			return err
		}
		for i, r := range l.recs {
			args := map[string]any{"id": i, "parent": r.parent}
			if r.op >= 0 {
				args["op"] = r.op
			}
			us := func(d time.Duration) float64 { return float64(d) / 1e3 }
			if err := emit(chromeEvent{Name: r.name, Ph: "X", Ts: us(r.start), Dur: us(r.end - r.start), Pid: 1, Tid: tid, Args: args}); err != nil {
				return err
			}
		}
	}
	if tracer != nil {
		if err := meta(0, 0, "process_name", "program (virtual clock)"); err != nil {
			return err
		}
		for i, v := range tracer.Spans() {
			if i == maxVirtualSpans {
				break
			}
			if v.Instant {
				continue
			}
			if err := emit(chromeEvent{Name: v.Name, Ph: "X", Ts: v.Start * 1e6, Dur: v.Duration() * 1e6, Pid: 0, Tid: v.Rank}); err != nil {
				return err
			}
		}
	}
	w.WriteString("]}\n")
	return w.Flush()
}

// CPU-profile buckets.  Rank goroutines hide every layer below the
// public API from the driver's spans; the leaf function's package is
// the only outside view of them.
var (
	shareNames = []string{"gidx", "distarray", "seclib", "libs", "chaoslib", "core", "codec", "bufpool",
		"mpsim", "serve", "obs", "runtime_alloc", "runtime_sched", "other"}
	libPkgs = map[string]bool{"hpfrt": true, "mbparti": true, "lparx": true, "pcxxrt": true}
	ownPkgs = map[string]bool{"gidx": true, "distarray": true, "seclib": true, "chaoslib": true, "core": true,
		"codec": true, "bufpool": true, "mpsim": true, "serve": true, "obs": true}
	allocFuncs = regexp.MustCompile(`^gcWriteBarrier|^runtime\.(gcWriteBarrier|malloc|gc|scan|grey|sweep|mark|bgsweep|bgscavenge|heapBits|heapSetType|bulkBarrier|wbBuf|newobject|newarray|makeslice|growslice|memclr|nextFreeFast|publicationBarrier|deductAssistCredit|spanOf|findObject|typePointers|\(\*(mspan|mheap|mcentral|mcache|gcWork|gcBits|gcControllerState|limiterEvent|pageAlloc|sweepLocked|activeSweep|scavenge)[A-Za-z]*\))`)
	schedFuncs = regexp.MustCompile(`^runtime\.(chan|send|recv|gopark|goready|ready|schedule|findRunnable|park_m|mcall|gosched|goschedIm|execute|runq|wakep|startm|stopm|futex|note|lock|unlock|sel|acquireSudog|releaseSudog|casgstatus|gogo|goexit|newproc|gfget|gfput|dropg|resetspinning|checkTimers|pidle|mPark|semasleep|semawakeup|usleep|osyield|nanotime|\(\*(waitq|sudog|timers?|gQueue|hchan)\))`)
)

func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "metachaos/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		switch {
		case libPkgs[pkg]:
			return "libs"
		case ownPkgs[pkg]:
			return pkg
		}
		return "other"
	}
	switch {
	case allocFuncs.MatchString(fn):
		return "runtime_alloc"
	case schedFuncs.MatchString(fn):
		return "runtime_sched"
	}
	return "other"
}

// cpuShares buckets a CPU profile's flat time by leaf function, as
// percentages of all samples, through `go tool pprof -top`.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := make(map[string]float64)
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		// flat flat% sum% cum cum% name...
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[bucketOf(strings.Join(f[5:], " "))] += pct
	}
	if !inTable {
		return nil, fmt.Errorf("go tool pprof: no sample table in output")
	}
	return shares, nil
}
