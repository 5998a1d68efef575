package main

import (
	"math"
	"testing"

	"ivliw/sweep"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Error("median reordered its input")
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{7}, 7, 7},
		{[]float64{1.5, 9, 2.25, 4}, 1.6875, 7.75},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 5.5/5.5) {
		t.Errorf("spread = %g, want 1", s)
	}
	if s := spread([]float64{0, 0}); s != 0 {
		t.Errorf("spread of a zero median = %g, want 0", s)
	}
}

func TestTailPercentile(t *testing.T) {
	// With n samples the answer is the one with exactly ten above it.
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := tailPercentile(xs); got != 90 {
		t.Errorf("tailPercentile(1..100) = %g, want 90", got)
	}
	if got := tailPercentile(xs[:12]); got != 90 {
		t.Errorf("tailPercentile(89..100) = %g, want 90", got)
	}
	if got := tailPercentile([]float64{4, 9, 1}); got != 9 {
		t.Errorf("tailPercentile of three samples = %g, want the maximum 9", got)
	}
	if got := tailPercentile(nil); got != 0 {
		t.Errorf("tailPercentile(nil) = %g, want 0", got)
	}
}

func TestFitLine(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	var ys []float64
	for _, x := range xs {
		ys = append(ys, 30+5*x)
	}
	a, b := fitLine(xs, ys)
	if !near(a, 30) || !near(b, 5) {
		t.Errorf("fitLine of an exact line = %g + %g·x, want 30 + 5·x", a, b)
	}
	// Symmetric noise around the line leaves the fit unchanged.
	ys = []float64{36, 39, 49, 71}
	a, b = fitLine(xs, ys)
	if math.Abs(a-30) > 1 || math.Abs(b-5) > 0.3 {
		t.Errorf("fitLine of a noisy line = %g + %g·x, want about 30 + 5·x", a, b)
	}
	if a, b := fitLine([]float64{2, 2}, []float64{3, 5}); a != 4 || b != 0 {
		t.Errorf("fitLine with no spread in x = %g + %g·x, want the mean 4", a, b)
	}
}

func TestReconcile(t *testing.T) {
	r := reconcile(map[string]float64{"core": 1.5, "sim": 0.25, "sweep": -0.05}, 2, 2.4)
	if !near(r.SelfS, 1.7) || !near(r.UnexplainedS, 0.3) || !near(r.OverheadS, 0.4) {
		t.Errorf("reconcile = %+v, want self 1.7, unexplained 0.3, overhead 0.4", r)
	}
}

func TestCalCompileMS(t *testing.T) {
	cal := sweep.Calibration{Clusters: []sweep.ClusterCost{
		{Clusters: 2, CompileMS: 2, SimMS: 1},
		{Clusters: 8, CompileMS: 200, SimMS: 1},
	}}
	if got := calCompileMS(cal, 4); !near(got, 2*math.Pow(100, 1.0/3)) {
		t.Errorf("calCompileMS at 4 = %g, want the geometric interpolation", got)
	}
	if got := calCompileMS(cal, 2); got != 2 {
		t.Errorf("calCompileMS at 2 = %g, want 2", got)
	}
	if got := calCompileMS(cal, 14); !near(got, 20000) {
		t.Errorf("calCompileMS at 14 = %g, want 20000 (two more decades per 6 clusters)", got)
	}
}
