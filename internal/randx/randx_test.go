package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint32() == c2.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling splits produced %d/100 identical outputs", same)
	}
}

func TestSplitLabeledStable(t *testing.T) {
	a := New(99).SplitLabeled("forums")
	b := New(99).SplitLabeled("forums")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("labeled splits with same label diverged")
		}
	}
	c := New(99).SplitLabeled("forums")
	d := New(99).SplitLabeled("images")
	diff := false
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("labeled splits with different labels produced identical streams")
	}
}

func TestSplitLabeledDoesNotAdvanceParent(t *testing.T) {
	a := New(5)
	b := New(5)
	a.SplitLabeled("x")
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SplitLabeled advanced the parent stream")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

// referenceIntn is Intn as it was before the threshold became lazy:
// the division runs on every draw. Intn must accept and reject exactly
// the same draws, so both consume the stream identically.
func referenceIntn(r *Rand, n int) int {
	if n <= math.MaxInt32 {
		bound := uint32(n)
		threshold := -bound % bound
		for {
			v := r.Uint32()
			prod := uint64(v) * uint64(bound)
			if uint32(prod) >= threshold {
				return int(prod >> 32)
			}
		}
	}
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := r.Uint64()
		if v <= max {
			return int(v % uint64(n))
		}
	}
}

// TestIntnMatchesReference holds Intn to the reference loop draw for
// draw and checks both streams end in the same state. 1431655766 is
// just above 2^32/3, so a third of its draws are rejected and the
// retry loop runs often.
func TestIntnMatchesReference(t *testing.T) {
	bounds := []int{1, 2, 3, 4, 7, 48, 64, 100, 1 << 10, 1 << 20, 1 << 30,
		1431655766, math.MaxInt32, math.MaxInt32 + 1, 1 << 40, math.MaxInt64}
	for seed := uint64(0); seed < 64; seed++ {
		for _, n := range bounds {
			got, want := New(seed), New(seed)
			for i := 0; i < 500; i++ {
				if g, w := got.Intn(n), referenceIntn(want, n); g != w {
					t.Fatalf("seed %d, n %d, draw %d: Intn = %d, reference = %d", seed, n, i, g, w)
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("seed %d, n %d: streams diverged after the draws", seed, n)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const trials = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance %.4f far from 1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(31)
	for _, mean := range []float64{0.5, 3, 12, 60} {
		const trials = 50000
		sum := 0
		for i := 0; i < trials; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / trials
		if math.Abs(got-mean) > 0.1*mean+0.05 {
			t.Errorf("Poisson(%v) sample mean %.3f", mean, got)
		}
	}
}

func TestParetoTail(t *testing.T) {
	r := New(37)
	const trials = 50000
	over := 0
	for i := 0; i < trials; i++ {
		v := r.Pareto(1, 1.5)
		if v < 1 {
			t.Fatalf("Pareto(1,1.5) below xm: %v", v)
		}
		if v > 10 {
			over++
		}
	}
	// P(X > 10) = 10^-1.5 ≈ 0.0316
	frac := float64(over) / trials
	if math.Abs(frac-0.0316) > 0.01 {
		t.Errorf("Pareto tail P(X>10) = %.4f, want ≈0.0316", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(41)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestWeightedPick(t *testing.T) {
	r := New(43)
	weights := []float64{0, 1, 0, 3, 0}
	counts := make([]int, len(weights))
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[r.WeightedPick(weights)]++
	}
	if counts[0] != 0 || counts[2] != 0 || counts[4] != 0 {
		t.Fatalf("zero-weight index chosen: %v", counts)
	}
	ratio := float64(counts[3]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("weight ratio %.2f, want ≈3", ratio)
	}
}

func TestWeightedPickPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WeightedPick with zero total did not panic")
		}
	}()
	New(1).WeightedPick([]float64{0, 0})
}

func TestZipfSkew(t *testing.T) {
	r := New(47)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Errorf("Zipf not monotone at head: c0=%d c1=%d c10=%d",
			counts[0], counts[1], counts[10])
	}
	// Rank-1 / rank-2 frequency ratio should be about 2^1.2 ≈ 2.3.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.8 || ratio > 2.9 {
		t.Errorf("Zipf rank ratio %.2f, want ≈2.3", ratio)
	}
}

func TestExpMean(t *testing.T) {
	r := New(53)
	const trials = 100000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += r.Exp(4)
	}
	mean := sum / trials
	if math.Abs(mean-4) > 0.1 {
		t.Errorf("Exp(4) sample mean %.3f", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(59)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(3, 1.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive value %v", v)
		}
	}
}

// Property: Intn never escapes its bound for arbitrary seeds and bounds.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds yield identical 20-step prefixes.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
