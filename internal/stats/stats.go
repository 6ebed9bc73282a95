// Package stats provides the descriptive statistics used throughout the
// paper's evaluation: five-number summaries (min, quartiles, max), means,
// least-squares trend lines and binned aggregation for scatter plots.
//
// All functions are pure and operate on float64 slices; callers own the data.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Summary is the five-number summary the paper reports in Tables 2 and 3
// (minimum, first, second and third quartiles, maximum) plus the mean and
// the sample size.
type Summary struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// Summarize computes the five-number summary of xs. Quartiles use linear
// interpolation between closest ranks (type-7, the R and NumPy default),
// which is well defined for any N >= 1.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Summary{
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.50),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
		N:      len(s),
	}, nil
}

// Quantile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// sample using linear interpolation between closest ranks. The slice must be
// sorted and non-empty; out-of-range p is clamped.
func Quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// TrendLine is a least-squares fit y = Intercept + Slope*x, with the Pearson
// correlation coefficient R of the underlying points. The paper draws trend
// lines in Figures 7a and 9.
type TrendLine struct {
	Slope, Intercept, R float64
	N                   int
}

// Fit computes the least-squares trend line through the paired samples. It
// returns an error when the samples are empty, mismatched in length, or the
// x values are all identical (vertical line).
func Fit(xs, ys []float64) (TrendLine, error) {
	if len(xs) == 0 {
		return TrendLine{}, ErrEmpty
	}
	if len(xs) != len(ys) {
		return TrendLine{}, fmt.Errorf("stats: mismatched sample sizes %d and %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return TrendLine{}, errors.New("stats: degenerate fit: all x values identical")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	r := 0.0
	if vy := n*syy - sy*sy; vy > 0 {
		r = (n*sxy - sx*sy) / math.Sqrt(den*vy)
	}
	return TrendLine{Slope: slope, Intercept: intercept, R: r, N: len(xs)}, nil
}

// At evaluates the trend line at x.
func (t TrendLine) At(x float64) float64 { return t.Intercept + t.Slope*x }

// Bin is one bucket of a binned scatter: the x-range midpoint, the mean of
// the y values that fell in the bucket, and the count.
type Bin struct {
	X    float64 // bucket midpoint
	Mean float64 // mean of y values in the bucket
	N    int
}

// BinnedMeans buckets the paired samples into nbins equal-width bins over
// [min(x), max(x)] and returns the per-bin mean of y. Empty bins are
// omitted. The paper's Figure 9 is this aggregation of (density,
// contribution) points.
func BinnedMeans(xs, ys []float64, nbins int) ([]Bin, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: mismatched sample sizes %d and %d", len(xs), len(ys))
	}
	if nbins < 1 {
		return nil, fmt.Errorf("stats: nbins must be positive, got %d", nbins)
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	width := (hi - lo) / float64(nbins)
	if width == 0 {
		// All x identical: a single bin holding everything.
		return []Bin{{X: lo, Mean: Mean(ys), N: len(ys)}}, nil
	}
	sums := make([]float64, nbins)
	counts := make([]int, nbins)
	for i, v := range xs {
		b := int((v - lo) / width)
		if b >= nbins {
			b = nbins - 1
		}
		sums[b] += ys[i]
		counts[b]++
	}
	var out []Bin
	for b := 0; b < nbins; b++ {
		if counts[b] == 0 {
			continue
		}
		out = append(out, Bin{
			X:    lo + (float64(b)+0.5)*width,
			Mean: sums[b] / float64(counts[b]),
			N:    counts[b],
		})
	}
	return out, nil
}
