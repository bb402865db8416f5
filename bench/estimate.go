package main

import (
	"math"
	"sort"
	"time"
)

// The estimator.  Interference on a shared host only ever makes a
// section slower.  So the timed section is a fixed number of rounds of a
// fixed op count (catalog.go), every timing metric is computed per
// round, and the best round is reported (lowest median latency, highest
// rate) — the same min-over-repeats rule internal/benchfmt applies
// across runs, applied inside one run.  Whole-run medians and tails are
// kept as diagnostics.

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation, the definition statistics.quantiles uses inclusively.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// roundMedians cuts v into consecutive, non-overlapping rounds of w
// samples and returns each round's median.  A short last round is
// dropped; the fixed op counts never leave one.
func roundMedians(v []float64, w int) []float64 {
	var meds []float64
	for i := 0; i+w <= len(v); i += w {
		meds = append(meds, median(v[i:i+w]))
	}
	return meds
}

// bestRound is the lowest round median.
func bestRound(v []float64, w int) float64 { return minOf(roundMedians(v, w)) }

// bestRate is the highest op rate, in ops per second, of any round of w
// ops, given each op's start time and the time the section ended.  A
// round lasts from its first op's start to the next round's, so whatever
// the loop does between ops is in it.
func bestRate(t0 []time.Duration, end time.Duration, w int) float64 {
	best := 0.0
	for i := 0; i+w <= len(t0); i += w {
		stop := end
		if i+w < len(t0) {
			stop = t0[i+w]
		}
		if r := float64(w) / (stop - t0[i]).Seconds(); r > best {
			best = r
		}
	}
	return best
}

// tail returns the highest percentile of the pooled samples that still
// has at least ten samples beyond it, capped at want.
func tail(all []float64, want float64) float64 {
	if len(all) == 0 {
		return 0
	}
	s := sortedCopy(all)
	q := want
	if limit := 1 - 10/float64(len(s)); q > limit {
		q = math.Max(limit, 0.5)
	}
	return quantile(s, q)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}
