package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is
// not modified. It returns 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-lo)*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that has
// at least ten of n samples beyond it, and how many samples lie beyond
// it. Below 20 samples no percentile qualifies and it falls back to
// the median.
func tailPercentile(n int) (pct float64, beyond int) {
	for _, p := range tailLadder {
		b := int(math.Floor(float64(n)*(1-p/100) + 1e-9))
		if b >= 10 {
			return p, b
		}
	}
	return 50, n / 2
}

// dueLatency is an open-loop request's latency: from the moment it was
// due, epoch+due, to the last byte of its result at end. Measuring from
// the due time rather than the send time charges a stall to every
// request it delays.
func dueLatency(epoch time.Time, due time.Duration, end time.Time) time.Duration {
	return end.Sub(epoch.Add(due))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
