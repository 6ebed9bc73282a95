package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]float64{
		"Min": s.Min, "Q1": s.Q1, "Median": s.Median, "Q3": s.Q3, "Max": s.Max, "Mean": s.Mean,
	} {
		if got != 3.5 {
			t.Errorf("%s = %g, want 3.5", name, got)
		}
	}
	if s.N != 1 {
		t.Errorf("N = %d, want 1", s.N)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// 1..5: quartiles via type-7 interpolation.
	s, err := Summarize([]float64{5, 1, 4, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("min/median/max = %g/%g/%g, want 1/3/5", s.Min, s.Median, s.Max)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("Q1/Q3 = %g/%g, want 2/4", s.Q1, s.Q3)
	}
	if s.Mean != 3 {
		t.Errorf("Mean = %g, want 3", s.Mean)
	}
}

func TestSummarizeInterpolated(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Q1, 1.75, 1e-12) || !almostEqual(s.Median, 2.5, 1e-12) || !almostEqual(s.Q3, 3.25, 1e-12) {
		t.Errorf("quartiles = %g/%g/%g, want 1.75/2.5/3.25", s.Q1, s.Median, s.Q3)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	if _, err := Summarize(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestQuantileClamping(t *testing.T) {
	s := []float64{1, 2, 3}
	if Quantile(s, -1) != 1 {
		t.Errorf("Quantile(p<0) = %g, want min", Quantile(s, -1))
	}
	if Quantile(s, 2) != 3 {
		t.Errorf("Quantile(p>1) = %g, want max", Quantile(s, 2))
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(empty) should be NaN")
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %g, want 5", Mean(xs))
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean of an empty sample should be NaN")
	}
}

func TestFitPerfectLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	tl, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tl.Slope, 2, 1e-12) || !almostEqual(tl.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", tl)
	}
	if !almostEqual(tl.R, 1, 1e-12) {
		t.Errorf("R = %g, want 1", tl.R)
	}
	if !almostEqual(tl.At(10), 21, 1e-12) {
		t.Errorf("At(10) = %g, want 21", tl.At(10))
	}
}

func TestFitNegativeCorrelation(t *testing.T) {
	tl, err := Fit([]float64{0, 1, 2}, []float64{4, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Slope >= 0 || tl.R >= 0 {
		t.Errorf("expected negative slope and R, got %+v", tl)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Error("Fit(empty) should error")
	}
	if _, err := Fit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("Fit(mismatched) should error")
	}
	if _, err := Fit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("Fit(vertical) should error")
	}
}

func TestFitHorizontalLineHasZeroR(t *testing.T) {
	tl, err := Fit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Slope != 0 || tl.R != 0 {
		t.Errorf("horizontal fit = %+v, want slope 0 R 0", tl)
	}
}

func TestBinnedMeans(t *testing.T) {
	xs := []float64{0, 0.1, 0.9, 1.0}
	ys := []float64{1, 3, 10, 20}
	bins, err := BinnedMeans(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 2 {
		t.Fatalf("got %d bins, want 2", len(bins))
	}
	if bins[0].N != 2 || bins[0].Mean != 2 {
		t.Errorf("bin0 = %+v, want N=2 mean=2", bins[0])
	}
	if bins[1].N != 2 || bins[1].Mean != 15 {
		t.Errorf("bin1 = %+v, want N=2 mean=15", bins[1])
	}
}

func TestBinnedMeansAllIdenticalX(t *testing.T) {
	bins, err := BinnedMeans([]float64{2, 2, 2}, []float64{1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 1 || bins[0].N != 3 || bins[0].Mean != 2 {
		t.Errorf("bins = %+v, want single bin mean 2", bins)
	}
}

func TestBinnedMeansErrors(t *testing.T) {
	if _, err := BinnedMeans(nil, nil, 3); err == nil {
		t.Error("empty input should error")
	}
	if _, err := BinnedMeans([]float64{1}, []float64{1, 2}, 3); err == nil {
		t.Error("mismatched input should error")
	}
	if _, err := BinnedMeans([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("nbins=0 should error")
	}
}

// Property: for any sample, Min <= Q1 <= Median <= Q3 <= Max and the mean is
// within [Min, Max].
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Keep magnitudes sane so the mean cannot overflow.
				xs = append(xs, math.Mod(v, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		eps := 1e-9 * (1 + math.Abs(s.Max) + math.Abs(s.Min))
		return s.Min <= s.Q1+eps && s.Q1 <= s.Median+eps && s.Median <= s.Q3+eps &&
			s.Q3 <= s.Max+eps && s.Mean >= s.Min-eps && s.Mean <= s.Max+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: fitting a line through points generated from y = a + b*x recovers
// a and b for non-degenerate x.
func TestFitRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		a := rng.Float64()*20 - 10
		b := rng.Float64()*20 - 10
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + rng.Float64() // strictly increasing, never degenerate
			ys[i] = a + b*xs[i]
		}
		tl, err := Fit(xs, ys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !almostEqual(tl.Slope, b, 1e-6) || !almostEqual(tl.Intercept, a, 1e-6) {
			t.Fatalf("trial %d: fit %+v, want a=%g b=%g", trial, tl, a, b)
		}
	}
}
