package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummarize(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want Summary
	}{
		{
			name: "single value",
			xs:   []float64{5},
			want: Summary{N: 1, Mean: 5, Min: 5, Max: 5, Sum: 5},
		},
		{
			name: "simple series",
			xs:   []float64{2, 4, 4, 4, 5, 5, 7, 9},
			want: Summary{N: 8, Mean: 5, Variance: 32.0 / 7, StdDev: math.Sqrt(32.0 / 7), Min: 2, Max: 9, Sum: 40},
		},
		{
			name: "negative values",
			xs:   []float64{-3, -1, 1, 3},
			want: Summary{N: 4, Mean: 0, Variance: 20.0 / 3, StdDev: math.Sqrt(20.0 / 3), Min: -3, Max: 3, Sum: 0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Summarize(tt.xs)
			if err != nil {
				t.Fatalf("Summarize() error = %v", err)
			}
			if got.N != tt.want.N || !almostEqual(got.Mean, tt.want.Mean, 1e-9) ||
				!almostEqual(got.Variance, tt.want.Variance, 1e-9) ||
				!almostEqual(got.Min, tt.want.Min, 0) || !almostEqual(got.Max, tt.want.Max, 0) ||
				!almostEqual(got.Sum, tt.want.Sum, 1e-9) {
				t.Errorf("Summarize() = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) error = %v, want ErrEmpty", err)
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 3},
		{"odd", []float64{5, 1, 3}, 3},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"duplicates", []float64{2, 2, 2, 2}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Median(tt.xs); got != tt.want {
				t.Errorf("Median(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{100, 10},
		{50, 5.5},
		{25, 3.25},
		{90, 9.1},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v) error = %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{10, 1, 5, 3, 8, 2, 9, 4, 7, 6}
	got, err := Percentiles(xs, 0, 25, 50, 90, 100)
	if err != nil {
		t.Fatalf("Percentiles error = %v", err)
	}
	// Each value must agree with the single-percentile path.
	for i, p := range []float64{0, 25, 50, 90, 100} {
		want, _ := Percentile(xs, p)
		if !almostEqual(got[i], want, 1e-9) {
			t.Errorf("Percentiles[%v] = %v, want %v", p, got[i], want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("Percentiles mutated input: %v", xs)
	}
	if _, err := Percentiles(nil, 50); err != ErrEmpty {
		t.Errorf("empty input error = %v, want ErrEmpty", err)
	}
	if _, err := Percentiles(xs, 50, 101); err == nil {
		t.Error("out-of-range p should error")
	}
	if out, err := Percentiles(xs); err != nil || len(out) != 0 {
		t.Errorf("no-percentile call = %v, %v; want empty, nil", out, err)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("empty input error = %v, want ErrEmpty", err)
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("p=-1 should error")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("p=101 should error")
	}
}

func TestCorrelation(t *testing.T) {
	// Perfect positive correlation.
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Correlation(xs, ys)
	if err != nil {
		t.Fatalf("Correlation error = %v", err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("Correlation = %v, want 1", r)
	}
	// Perfect negative correlation.
	ysNeg := []float64{8, 6, 4, 2}
	r, err = Correlation(xs, ysNeg)
	if err != nil {
		t.Fatalf("Correlation error = %v", err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("Correlation = %v, want -1", r)
	}
}

func TestCorrelationErrors(t *testing.T) {
	if _, err := Correlation([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := Correlation([]float64{1}, []float64{2}); err == nil {
		t.Error("single point should error")
	}
	if _, err := Correlation([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero-variance series should error")
	}
}

func TestMeanPropertyBounds(t *testing.T) {
	// Property: mean is always within [min, max] of the sample.
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s, err := Summarize(clean)
		if err != nil {
			return false
		}
		return s.Mean >= s.Min-1e-6 && s.Mean <= s.Max+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotonicProperty(t *testing.T) {
	// Property: percentile is monotone non-decreasing in p.
	f := func(raw []float64, p1, p2 float64) bool {
		clean := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 101)
		p2 = math.Mod(math.Abs(p2), 101)
		if p1 > 100 {
			p1 = 100
		}
		if p2 > 100 {
			p2 = 100
		}
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, err1 := Percentile(clean, p1)
		v2, err2 := Percentile(clean, p2)
		if err1 != nil || err2 != nil {
			return false
		}
		return v1 <= v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
