package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"metachaos/internal/mpsim"
)

// TestTimeItersAndPerIter pins the two repeat helpers against each
// other: perIter is timeIters divided by N exactly, and timeIters takes
// N = 0 (ablation A6's build-only run) where perIter would divide by
// zero.  Each measurement is its own simulation, so the two start from
// the same clock and the comparison is bit for bit.
func TestTimeItersAndPerIter(t *testing.T) {
	for _, n := range []int{0, 1, 3, 10} {
		calls := 0
		once := func(timer func(*mpsim.Proc, *mpsim.Comm, int, func()) float64) float64 {
			v, _ := measure(sp2(), 2, func(p *mpsim.Proc) []float64 {
				return []float64{timer(p, p.Comm(), n, func() {
					if p.Rank() == 0 {
						calls++
					}
					p.ChargeFlops(1000 * (1 + p.Rank()))
					p.Comm().Barrier()
				})}
			})
			return v[0]
		}
		total := once(timeIters)
		if calls != n {
			t.Errorf("timeIters(%d) called f %d times", n, calls)
		}
		if math.IsNaN(total) || math.IsInf(total, 0) || total < 0 {
			t.Errorf("timeIters(%d) = %g, want a finite non-negative time", n, total)
		}
		if n == 0 {
			continue
		}
		if per := once(perIter); per != total/float64(n) {
			t.Errorf("perIter(%d) = %g, want timeIters/%d = %g", n, per, n, total/float64(n))
		}
	}
}

func TestSweepSP2(t *testing.T) {
	// Rank 0 alone publishes, values come back in msec, indexed
	// [value][process count].
	got := sweepSP2([]int{2, 4}, 2, func(p *mpsim.Proc) []float64 {
		s := float64(p.Size()) + 100*float64(p.Rank())
		return []float64{s, 2 * s}
	})
	want := [][]float64{{2000, 4000}, {4000, 8000}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("sweepSP2 = %v, want %v", got, want)
	}

	for name, body := range map[string]func(p *mpsim.Proc) []float64{
		"boom":              func(p *mpsim.Proc) []float64 { panic("boom") },
		"returned 1 values": func(p *mpsim.Proc) []float64 { return []float64{1} },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), name) {
					t.Errorf("sweep over a bad body: recovered %v, want a panic naming %q", r, name)
				}
			}()
			sweepSP2([]int{2}, 2, body)
		}()
	}
}
