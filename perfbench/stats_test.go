package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) should be NaN")
	}
}

// The expected cut points are what Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{2, 4, 6, 8, 10, 12, 14, 16, 18}, [3]float64{5, 10, 15}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should be refused")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
		ok      bool
	}{
		{5000, 99, true},
		{1000, 99, true},
		{999, 98, true},
		{500, 98, true},
		{499, 95, true},
		{100, 90, true},
		{99, 80, true},
		{60, 80, true},
		{20, 50, true},
		{19, 0, false},
	} {
		pct, v, ok := tail(seq(c.n))
		if ok != c.ok || pct != c.wantPct {
			t.Errorf("tail(n=%d) = p%v ok=%v, want p%v ok=%v", c.n, pct, ok, c.wantPct, c.ok)
			continue
		}
		if ok {
			if beyond := c.n - int(v); beyond < minBeyond {
				t.Errorf("tail(n=%d) = p%v leaves %d samples beyond it", c.n, pct, beyond)
			}
		}
	}
}

func TestP99RefusesFewSamples(t *testing.T) {
	if _, err := p99(seq(999)); err == nil {
		t.Error("p99 from 999 samples should be refused")
	}
	v, err := p99(seq(1000))
	if err != nil || v != 990 {
		t.Errorf("p99(1..1000) = %v, %v; want 990", v, err)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 = %v", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
}

func TestSummarizeTailIsMedianOfWindows(t *testing.T) {
	// Three windows of 100 samples; only the middle one has a burst.
	a, b := seq(300), seq(300)
	for i := 100; i < 200; i++ {
		a[i] += 1000
	}
	var windows [][]float64
	for w := 0; w < 3; w++ {
		windows = append(windows, append(append([]float64(nil), chunks(a, 3)[w]...), chunks(b, 3)[w]...))
	}
	l, err := summarize("op", append(append([]float64(nil), a...), b...), windows, 90, false)
	if err != nil {
		t.Fatal(err)
	}
	// Window tails are 90, ~1190 (the burst) and 290; the burst window
	// must not set the reported tail.
	if want := 290.0; l.tailMs != want {
		t.Errorf("tail = %v, want %v", l.tailMs, want)
	}
	if l.n != 600 {
		t.Errorf("n = %d", l.n)
	}
}

func TestSummarizeRefusesThinTails(t *testing.T) {
	if _, err := summarize("op", seq(300), chunks(seq(300), 3), 95, false); err == nil {
		t.Error("p95 over 100-sample windows leaves 5 beyond and must be refused")
	}
	if _, err := summarize("op", seq(2400), chunks(seq(2400), 3), 99, false); err == nil {
		t.Error("p99 over 800-sample windows must be refused")
	}
	if _, err := summarize("op", seq(3000), chunks(seq(3000), 3), 99, false); err != nil {
		t.Errorf("p99 over 1000-sample windows: %v", err)
	}
}

// chunks splits xs into n consecutive windows of (nearly) equal count.
func chunks(xs []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for w := range out {
		out[w] = xs[len(xs)*w/n : len(xs)*(w+1)/n]
	}
	return out
}
