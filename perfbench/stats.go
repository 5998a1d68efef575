package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spreads printed here match the ones computed over run results.
// With fewer than two values both quartiles are that value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// tailPercentile returns the highest order statistic that still has at
// least ten samples beyond it: sorted[n-11]. With eleven samples or fewer no
// such percentile exists and the maximum is returned instead.
func tailPercentile(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n <= 11:
		return s[n-1]
	}
	return s[n-11]
}

// fitLine fits y = a + b·x by least squares. It is the simulator model
// t(k) = front + k·lane over batch widths k.
func fitLine(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}

// reconciliation compares the layer self times of a traced run with the
// untraced wall time of the same work.
type reconciliation struct {
	// SelfS is the sum of the layer self times.
	SelfS float64
	// UnexplainedS is the untraced wall time the layers do not account for.
	UnexplainedS float64
	// OverheadS is the traced wall time minus the untraced wall time.
	OverheadS float64
}

// reconcile sums the layer self times (in seconds) and relates them to the
// untraced and traced wall times of the same work.
func reconcile(selfS map[string]float64, untracedWallS, tracedWallS float64) reconciliation {
	var r reconciliation
	keys := make([]string, 0, len(selfS))
	for k := range selfS {
		keys = append(keys, k)
	}
	sort.Strings(keys) // fixed summation order keeps the float sum reproducible
	for _, k := range keys {
		r.SelfS += selfS[k]
	}
	r.UnexplainedS = untracedWallS - r.SelfS
	r.OverheadS = tracedWallS - untracedWallS
	return r
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
