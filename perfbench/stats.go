package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// computed exactly like Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so spreads computed here and by a Python
// reader of the results agree. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], nil
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// sorted samples, ceil(p*n/100), in integer arithmetic so that, e.g., p90
// of 100 samples is exactly rank 90. p is a whole number in (0, 100].
func rank(n int, p float64) int {
	r := (int(p)*n + 99) / 100
	return min(max(r, 1), n)
}

// beyond is how many of n samples lie past the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[rank(len(xs), p)-1]
}

// tailGrid is the set of percentiles a tail may be reported at. A fixed
// grid keeps the reported percentile stable when the sample count moves a
// little between runs.
var tailGrid = []float64{99, 98, 95, 90, 80, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail returns the highest percentile of the grid that has at least
// minBeyond samples beyond it, and its value. ok is false when even the
// median lacks that many samples beyond it.
func tail(xs []float64) (pct, value float64, ok bool) {
	for _, p := range tailGrid {
		if beyond(len(xs), p) >= minBeyond {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// minP99Samples is the fewest samples a p99 may be reported from: ten
// samples beyond the 99th percentile.
const minP99Samples = 1000

// p99 is the 99th percentile, refused below minP99Samples samples.
func p99(xs []float64) (float64, error) {
	if len(xs) < minP99Samples {
		return 0, fmt.Errorf("p99 needs at least %d samples, have %d", minP99Samples, len(xs))
	}
	return percentile(xs, 99), nil
}

// latency summarizes one op type's latency samples, in milliseconds: the
// median and a tail percentile fixed per op type, so the percentile a
// metric reports never changes between runs with the sample count.
type latency struct {
	op      string
	n       int
	p50     float64
	tailPct float64
	tailMs  float64
	windows int
	fromDue bool
}

// summarize reports the median of all samples and, as the tail, the
// median over windows (consecutive shares of the same samples) of each
// window's pct-th percentile: a burst of interference then moves one
// window, not the reported tail. It refuses a window with fewer than
// minBeyond samples beyond pct, and a p99 from fewer than minP99Samples
// samples.
func summarize(op string, all []float64, windows [][]float64, pct float64, fromDue bool) (latency, error) {
	l := latency{op: op, n: len(all), p50: median(all), tailPct: pct, windows: len(windows), fromDue: fromDue}
	var tails []float64
	for _, win := range windows {
		if beyond(len(win), pct) < minBeyond {
			best, _, ok := tail(win)
			return l, fmt.Errorf("%s: window of %d samples leaves fewer than %d beyond p%g (highest supported: p%g, ok=%v)", op, len(win), minBeyond, pct, best, ok)
		}
		v := percentile(win, pct)
		if pct == 99 {
			var err error
			if v, err = p99(win); err != nil {
				return l, fmt.Errorf("%s: %w", op, err)
			}
		}
		tails = append(tails, v)
	}
	l.tailMs = median(tails)
	return l, nil
}

// String prints the summary with its sample count and percentile, e.g.
// "search p50 0.48 ms, p99 0.75 ms (n=41000)".
func (l latency) String() string {
	due := ""
	if l.fromDue {
		due = ", timed from due"
	}
	win := ""
	if l.windows > 1 {
		win = fmt.Sprintf(" (median of %d windows)", l.windows)
	}
	return fmt.Sprintf("%s p50 %.4g ms, p%g %.4g ms%s (n=%d%s)", l.op, l.p50, l.tailPct, l.tailMs, win, l.n, due)
}

// percentiles lists every grid percentile that has at least minBeyond
// samples beyond it, e.g. "p80 1.2 p90 1.9 p95 2.4".
func percentiles(ms []float64) string {
	var b strings.Builder
	for i := len(tailGrid) - 1; i >= 0; i-- {
		p := tailGrid[i]
		if beyond(len(ms), p) >= minBeyond {
			fmt.Fprintf(&b, " p%g %.4g", p, percentile(ms, p))
		}
	}
	return strings.TrimSpace(b.String())
}
