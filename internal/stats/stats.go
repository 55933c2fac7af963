// Package stats implements the descriptive statistics the study
// reports: empirical CDFs (Figures 2 and 4), quantiles, summary
// statistics for the per-group aggregates (Tables 8 and 10), and
// monthly time series (Figure 3).
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary holds the usual moments and order statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Median float64
	Max    float64
	Sum    float64
}

// Summarize computes a Summary of xs. A nil or empty sample yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
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
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. The input need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile over a series already sorted ascending:
// it reads two order statistics and neither copies nor sorts. A
// sorted series is its own empirical CDF, so callers that read many
// quantiles of one series sort it once and call this. It returns NaN
// for an empty series.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ECDF is an empirical cumulative distribution function over a sample.
// The paper presents several results as CDF plots (Figures 2 and 4);
// ECDF provides the evaluation and plotting series behind them.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample xs (copied, then sorted).
func NewECDF(xs []float64) *ECDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// Count of values <= x via binary search for the first value > x.
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the q-quantile of the sample.
func (e *ECDF) Quantile(q float64) float64 {
	return QuantileSorted(e.sorted, q)
}

// Point is one (x, cumulative-percentage) pair in a CDF series.
type Point struct {
	X   float64
	Pct float64 // cumulative percentage in [0, 100]
}

// Series returns up to n evenly spaced points of the CDF, suitable for
// rendering the paper's CDF figures. The final point always reaches
// 100%.
func (e *ECDF) Series(n int) []Point {
	if len(e.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(e.sorted) {
		n = len(e.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		idx := i*len(e.sorted)/n - 1
		pts = append(pts, Point{
			X:   e.sorted[idx],
			Pct: 100 * float64(idx+1) / float64(len(e.sorted)),
		})
	}
	return pts
}

// Month identifies a calendar month.
type Month struct {
	Year int
	M    time.Month
}

// MonthOf returns the Month containing t (in UTC).
func MonthOf(t time.Time) Month {
	u := t.UTC()
	return Month{Year: u.Year(), M: u.Month()}
}

// Before reports whether m precedes other.
func (m Month) Before(other Month) bool {
	if m.Year != other.Year {
		return m.Year < other.Year
	}
	return m.M < other.M
}

// Next returns the following calendar month.
func (m Month) Next() Month {
	if m.M == time.December {
		return Month{Year: m.Year + 1, M: time.January}
	}
	return Month{Year: m.Year, M: m.M + 1}
}

// String formats the month like "Jan 14", matching the axis labels of
// Figure 3.
func (m Month) String() string {
	return fmt.Sprintf("%s %02d", m.M.String()[:3], m.Year%100)
}

// MonthlySeries counts events per calendar month. It backs Figure 3
// (proof-of-earnings per payment platform per month).
type MonthlySeries struct {
	counts map[Month]int
}

// NewMonthlySeries returns an empty monthly series.
func NewMonthlySeries() *MonthlySeries {
	return &MonthlySeries{counts: make(map[Month]int)}
}

// Add records one event at time t.
func (s *MonthlySeries) Add(t time.Time) { s.AddN(t, 1) }

// AddN records n events at time t.
func (s *MonthlySeries) AddN(t time.Time, n int) {
	s.counts[MonthOf(t)] += n
}

// Count returns the number of events recorded in m.
func (s *MonthlySeries) Count(m Month) int { return s.counts[m] }

// Total returns the number of events across all months.
func (s *MonthlySeries) Total() int {
	total := 0
	for _, c := range s.counts {
		total += c
	}
	return total
}

// Span returns the earliest and latest months with events, and false if
// the series is empty.
func (s *MonthlySeries) Span() (first, last Month, ok bool) {
	for m := range s.counts {
		if !ok {
			first, last, ok = m, m, true
			continue
		}
		if m.Before(first) {
			first = m
		}
		if last.Before(m) {
			last = m
		}
	}
	return first, last, ok
}

// MonthCount is one month's value in a dense series.
type MonthCount struct {
	Month Month
	Count int
}

// Dense returns the series as consecutive months from first to last
// (inclusive), filling gaps with zero counts.
func (s *MonthlySeries) Dense(first, last Month) []MonthCount {
	if last.Before(first) {
		return nil
	}
	var out []MonthCount
	for m := first; !last.Before(m); m = m.Next() {
		out = append(out, MonthCount{Month: m, Count: s.counts[m]})
	}
	return out
}

// Histogram counts values into [edges[i], edges[i+1]) bins, with a
// final overflow bin for values >= the last edge.
type Histogram struct {
	Edges  []float64
	Counts []int
}

// NewHistogram builds a histogram of xs over the given ascending bin
// edges. It panics if fewer than one edge is provided or edges are not
// strictly ascending.
func NewHistogram(xs []float64, edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("stats: NewHistogram requires at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: histogram edges must be strictly ascending")
		}
	}
	h := &Histogram{Edges: edges, Counts: make([]int, len(edges))}
	for _, x := range xs {
		if x < edges[0] {
			continue
		}
		idx := sort.SearchFloat64s(edges, math.Nextafter(x, math.Inf(1)))
		h.Counts[idx-1]++
	}
	return h
}

// Total returns the number of values binned (values below the first
// edge are dropped).
func (h *Histogram) Total() int {
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	return total
}

// Gini returns the Gini coefficient of the (non-negative) sample: 0 is
// perfect equality, values near 1 indicate the extreme concentration
// the paper observes in earnings and pack-sharing.
func Gini(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var cum, weighted float64
	for i, x := range sorted {
		cum += x
		weighted += float64(i+1) * x
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - (n+1)*cum) / (n * cum)
}

// tCrit95 holds two-sided 95% Student-t critical values for 1–30
// degrees of freedom; larger samples fall back to the normal 1.96.
// The sweep engine's confidence intervals typically aggregate 3–30
// seeds, squarely inside the table.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for
// the given degrees of freedom (NaN for df < 1).
func TCritical95(df int) float64 {
	switch {
	case df < 1:
		return math.NaN()
	case df <= len(tCrit95):
		return tCrit95[df-1]
	default:
		return 1.96
	}
}

// Interval is a sample mean with its two-sided 95% confidence
// interval and the sample extremes. A single observation has a
// degenerate interval (Low == High == Mean): there is no variance
// estimate to widen it with.
type Interval struct {
	N         int
	Mean, Std float64
	Low, High float64
	HalfWidth float64
	Min, Max  float64
}

// MeanCI95 computes the sample mean and its Student-t 95% confidence
// interval. Empty samples return a zero Interval with NaN moments.
func MeanCI95(xs []float64) Interval {
	if len(xs) == 0 {
		nan := math.NaN()
		return Interval{Mean: nan, Std: nan, Low: nan, High: nan, Min: nan, Max: nan}
	}
	s := Summarize(xs)
	iv := Interval{
		N: s.N, Mean: s.Mean, Std: s.Std,
		Low: s.Mean, High: s.Mean, Min: s.Min, Max: s.Max,
	}
	if s.N > 1 {
		iv.HalfWidth = TCritical95(s.N-1) * s.Std / math.Sqrt(float64(s.N))
		iv.Low = s.Mean - iv.HalfWidth
		iv.High = s.Mean + iv.HalfWidth
	}
	return iv
}

// Fit is an ordinary-least-squares line y = Intercept + Slope*x.
type Fit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination (1 for a perfect fit; 0
	// when x explains nothing, or when y is constant).
	R2 float64
}

// Linreg fits y = a + b*x by least squares. It panics if the slices
// differ in length; it returns ok=false when fewer than two points are
// given or every x is identical (the slope is undefined).
func Linreg(xs, ys []float64) (Fit, bool) {
	if len(xs) != len(ys) {
		panic("stats: Linreg needs matched x/y samples")
	}
	if len(xs) < 2 {
		return Fit{}, false
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, false
	}
	f := Fit{Slope: sxy / sxx}
	f.Intercept = my - f.Slope*mx
	if syy > 0 {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	return f, true
}

// TopShare returns the fraction of the total held by the k largest
// values, e.g. "the top-50 earners account for 55.5% of reported
// earnings".
func TopShare(xs []float64, k int) float64 {
	if len(xs) == 0 || k <= 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	total := 0.0
	for _, x := range sorted {
		total += x
	}
	if total == 0 {
		return 0
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	top := 0.0
	for i := len(sorted) - k; i < len(sorted); i++ {
		top += sorted[i]
	}
	return top / total
}
