// Package stats provides the statistical and mathematical analysis
// substrate for the rich SDK and the personalized knowledge base. It stands
// in for the Apache Commons Math library used by the paper: descriptive
// statistics, percentiles, correlation, and linear / polynomial / multiple
// regression. Latency distributions live in internal/metrics' histograms.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that require at least one observation.
var ErrEmpty = errors.New("stats: no observations")

// Summary holds descriptive statistics for a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // sample variance (n-1 denominator)
	StdDev   float64
	Min      float64
	Max      float64
	Sum      float64
}

// Summarize computes descriptive statistics over xs. It returns ErrEmpty if
// xs is empty.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Variance)
	}
	return s, nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs, or 0 for an empty slice. xs is not
// modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, xs)
	sort.Float64s(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns ErrEmpty for empty input
// and an error for out-of-range p. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return percentileSorted(cp, p), nil
}

// Percentiles returns the percentiles for each p in ps (0 <= p <= 100),
// sorting xs only once. It returns ErrEmpty for empty input and an error
// for any out-of-range p. xs is not modified.
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	for _, p := range ps {
		if p < 0 || p > 100 {
			return nil, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
		}
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentileSorted(cp, p)
	}
	return out, nil
}

// percentileSorted reads the p-th percentile from an already-sorted,
// non-empty slice using linear interpolation between closest ranks.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Correlation returns the Pearson correlation coefficient between xs and ys.
// It returns an error if the lengths differ, fewer than two points are
// given, or either series has zero variance.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance series")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
