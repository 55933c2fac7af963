package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Sum != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.Sum != 40 {
		t.Errorf("Sum = %v", s.Sum)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("Std = %v want %v", s.Std, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%.2f) = %v want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileUnsortedInputUnmodified(t *testing.T) {
	xs := []float64{5, 1, 3}
	_ = Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestECDFAt(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x, want float64
	}{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v want %v", c.x, got, c.want)
		}
	}
}

func TestECDFSeries(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := e.Series(5)
	if len(pts) != 5 {
		t.Fatalf("Series(5) returned %d points", len(pts))
	}
	if pts[len(pts)-1].Pct != 100 {
		t.Errorf("final point %v, want 100%%", pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Pct <= pts[i-1].Pct {
			t.Errorf("series not monotone at %d: %+v", i, pts)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if !math.IsNaN(e.At(1)) || !math.IsNaN(e.Quantile(0.5)) {
		t.Fatal("empty ECDF should return NaN")
	}
	if e.Series(5) != nil {
		t.Fatal("empty ECDF should return nil series")
	}
}

// Property: ECDF is monotone non-decreasing and bounded in [0,1].
func TestQuickECDFMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		pa, pb := e.At(lo), e.At(hi)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile output lies within [min, max] of the sample.
func TestQuickQuantileBounded(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qq := math.Mod(math.Abs(q), 1)
		got := Quantile(xs, qq)
		s := Summarize(xs)
		return got >= s.Min-1e-9 && got <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonthOfAndString(t *testing.T) {
	m := MonthOf(time.Date(2014, time.July, 15, 3, 0, 0, 0, time.UTC))
	if m.Year != 2014 || m.M != time.July {
		t.Fatalf("MonthOf = %+v", m)
	}
	if m.String() != "Jul 14" {
		t.Errorf("String = %q", m.String())
	}
}

func TestMonthNextWrapsYear(t *testing.T) {
	m := Month{Year: 2016, M: time.December}.Next()
	if m.Year != 2017 || m.M != time.January {
		t.Fatalf("December.Next() = %+v", m)
	}
}

func TestMonthlySeries(t *testing.T) {
	s := NewMonthlySeries()
	jan := time.Date(2015, time.January, 5, 0, 0, 0, 0, time.UTC)
	mar := time.Date(2015, time.March, 5, 0, 0, 0, 0, time.UTC)
	s.Add(jan)
	s.Add(jan)
	s.AddN(mar, 3)
	first, last, ok := s.Span()
	if !ok {
		t.Fatal("Span on non-empty series returned !ok")
	}
	if first != (Month{2015, time.January}) || last != (Month{2015, time.March}) {
		t.Fatalf("Span = %v..%v", first, last)
	}
	dense := s.Dense(first, last)
	if len(dense) != 3 {
		t.Fatalf("Dense returned %d months", len(dense))
	}
	if dense[0].Count != 2 || dense[1].Count != 0 || dense[2].Count != 3 {
		t.Fatalf("Dense counts wrong: %+v", dense)
	}
	if s.Total() != 5 {
		t.Fatalf("Total = %d", s.Total())
	}
}

func TestMonthlySeriesEmptySpan(t *testing.T) {
	if _, _, ok := NewMonthlySeries().Span(); ok {
		t.Fatal("Span on empty series returned ok")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1, 1.5, 2, 5, 100}, []float64{1, 2, 3})
	// Bins: [1,2)=2 values (1, 1.5), [2,3)=1 value (2), [3,inf)=2 values (5, 100).
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 2 {
		t.Fatalf("Counts = %v", h.Counts)
	}
	if h.Total() != 5 {
		t.Fatalf("Total = %d (0.5 should be dropped)", h.Total())
	}
}

func TestHistogramPanicsOnBadEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending edges did not panic")
		}
	}()
	NewHistogram(nil, []float64{2, 1})
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Errorf("equal sample Gini = %v, want 0", g)
	}
	g := Gini([]float64{0, 0, 0, 100})
	if g < 0.7 {
		t.Errorf("concentrated sample Gini = %v, want high", g)
	}
	if !math.IsNaN(Gini(nil)) {
		t.Error("Gini(nil) should be NaN")
	}
}

func TestTopShare(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 6}
	if got := TopShare(xs, 1); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("TopShare k=1 = %v", got)
	}
	if got := TopShare(xs, 5); math.Abs(got-1) > 1e-12 {
		t.Errorf("TopShare k=n = %v", got)
	}
	if got := TopShare(xs, 100); math.Abs(got-1) > 1e-12 {
		t.Errorf("TopShare k>n = %v", got)
	}
	if TopShare(nil, 3) != 0 {
		t.Error("TopShare(nil) != 0")
	}
}

func TestMeanCI95(t *testing.T) {
	// n=5, mean 3, std sqrt(2.5): t(4)=2.776.
	xs := []float64{1, 2, 3, 4, 5}
	iv := MeanCI95(xs)
	if iv.N != 5 || math.Abs(iv.Mean-3) > 1e-12 {
		t.Fatalf("mean = %+v", iv)
	}
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(iv.HalfWidth-want) > 1e-9 {
		t.Fatalf("half-width = %v, want %v", iv.HalfWidth, want)
	}
	if math.Abs((iv.High-iv.Low)/2-iv.HalfWidth) > 1e-12 {
		t.Fatal("interval not centred on the mean")
	}
	// Single observation: degenerate interval, no variance estimate.
	one := MeanCI95([]float64{7})
	if one.Low != 7 || one.High != 7 || one.HalfWidth != 0 {
		t.Fatalf("single-sample interval = %+v", one)
	}
	if !math.IsNaN(MeanCI95(nil).Mean) {
		t.Fatal("empty sample should be NaN")
	}
}

func TestTCritical95(t *testing.T) {
	if got := TCritical95(1); math.Abs(got-12.706) > 1e-9 {
		t.Errorf("df=1: %v", got)
	}
	if got := TCritical95(30); math.Abs(got-2.042) > 1e-9 {
		t.Errorf("df=30: %v", got)
	}
	if got := TCritical95(500); got != 1.96 {
		t.Errorf("df=500: %v", got)
	}
	if !math.IsNaN(TCritical95(0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestLinreg(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, ok := Linreg(xs, ys)
	if !ok || math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v ok=%v", fit, ok)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
	// Constant y: slope 0, R2 0 (x explains nothing).
	fit, ok = Linreg(xs, []float64{4, 4, 4, 4})
	if !ok || fit.Slope != 0 || fit.R2 != 0 {
		t.Fatalf("constant-y fit = %+v ok=%v", fit, ok)
	}
	// Degenerate inputs.
	if _, ok := Linreg([]float64{1}, []float64{2}); ok {
		t.Error("single point should not fit")
	}
	if _, ok := Linreg([]float64{2, 2}, []float64{1, 9}); ok {
		t.Error("constant x should not fit")
	}
}
