package ml

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

// linearlySeparable builds a 2-feature dataset separable by x0 > x1.
func linearlySeparable(n int, seed uint64) []Example {
	rng := randx.New(seed)
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		a := rng.Float64()
		b := rng.Float64()
		if math.Abs(a-b) < 0.1 {
			continue // margin gap
		}
		out = append(out, Example{
			X: SparseVec{Idx: []int{0, 1}, Val: []float64{a, b}},
			Y: a > b,
		})
	}
	return out
}

func TestTrainSeparable(t *testing.T) {
	examples := linearlySeparable(400, 5)
	model, err := TrainSVM(examples, 2, DefaultSVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	met := model.Evaluate(examples)
	if acc := met.Accuracy(); acc < 0.97 {
		t.Fatalf("training accuracy %.3f on separable data", acc)
	}
}

func TestTrainGeneralises(t *testing.T) {
	examples := linearlySeparable(600, 7)
	train, test := TrainTestSplit(examples, 0.8, 3)
	model, err := TrainSVM(train, 2, DefaultSVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	met := model.Evaluate(test)
	if met.F1() < 0.95 {
		t.Fatalf("test F1 %.3f on separable data", met.F1())
	}
}

func TestTrainDeterministic(t *testing.T) {
	examples := linearlySeparable(200, 9)
	a, err := TrainSVM(examples, 2, DefaultSVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainSVM(examples, 2, DefaultSVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatal("same seed produced different weights")
		}
	}
	if a.B != b.B {
		t.Fatal("same seed produced different bias")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := TrainSVM(nil, 2, DefaultSVMConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	onlyPos := []Example{{X: SparseVec{Idx: []int{0}, Val: []float64{1}}, Y: true}}
	if _, err := TrainSVM(onlyPos, 1, DefaultSVMConfig()); err == nil {
		t.Error("single-class training set accepted")
	}
	both := []Example{
		{X: SparseVec{Idx: []int{5}, Val: []float64{1}}, Y: true},
		{X: SparseVec{Idx: []int{0}, Val: []float64{1}}, Y: false},
	}
	if _, err := TrainSVM(both, 2, DefaultSVMConfig()); err == nil {
		t.Error("out-of-range feature index accepted")
	}
	cfg := DefaultSVMConfig()
	cfg.Lambda = 0
	if _, err := TrainSVM(both, 6, cfg); err == nil {
		t.Error("zero lambda accepted")
	}
}

func TestClassWeightShiftsRecall(t *testing.T) {
	// Imbalanced noisy data: 10% positives.
	rng := randx.New(13)
	var examples []Example
	for i := 0; i < 1000; i++ {
		pos := i%10 == 0
		center := 0.3
		if pos {
			center = 0.6
		}
		v := center + 0.25*rng.NormFloat64()
		examples = append(examples, Example{
			X: SparseVec{Idx: []int{0}, Val: []float64{v}},
			Y: pos,
		})
	}
	low := DefaultSVMConfig()
	low.ClassWeight = 1
	high := DefaultSVMConfig()
	high.ClassWeight = 8
	mLow, err := TrainSVM(examples, 1, low)
	if err != nil {
		t.Fatal(err)
	}
	mHigh, err := TrainSVM(examples, 1, high)
	if err != nil {
		t.Fatal(err)
	}
	rLow := mLow.Evaluate(examples).Recall()
	rHigh := mHigh.Evaluate(examples).Recall()
	if rHigh < rLow {
		t.Fatalf("higher class weight lowered recall: %.3f -> %.3f", rLow, rHigh)
	}
}

func TestMetrics(t *testing.T) {
	m := Metrics{TP: 8, FP: 2, FN: 2, TN: 88}
	if p := m.Precision(); math.Abs(p-0.8) > 1e-12 {
		t.Errorf("Precision = %v", p)
	}
	if r := m.Recall(); math.Abs(r-0.8) > 1e-12 {
		t.Errorf("Recall = %v", r)
	}
	if f := m.F1(); math.Abs(f-0.8) > 1e-12 {
		t.Errorf("F1 = %v", f)
	}
	if a := m.Accuracy(); math.Abs(a-0.96) > 1e-12 {
		t.Errorf("Accuracy = %v", a)
	}
}

func TestMetricsZeroSafe(t *testing.T) {
	var m Metrics
	if m.Precision() != 0 || m.Recall() != 0 || m.F1() != 0 || m.Accuracy() != 0 {
		t.Fatal("zero metrics should not divide by zero")
	}
}

func TestMetricsObserve(t *testing.T) {
	var m Metrics
	m.Observe(true, true)
	m.Observe(true, false)
	m.Observe(false, true)
	m.Observe(false, false)
	if m.TP != 1 || m.FP != 1 || m.FN != 1 || m.TN != 1 {
		t.Fatalf("Observe = %+v", m)
	}
}

func TestTrainTestSplit(t *testing.T) {
	examples := linearlySeparable(1000, 21)
	train, test := TrainTestSplit(examples, 0.8, 1)
	if len(train)+len(test) != len(examples) {
		t.Fatalf("split sizes %d+%d != %d", len(train), len(test), len(examples))
	}
	wantTrain := int(math.Round(0.8 * float64(len(examples))))
	if len(train) != wantTrain {
		t.Fatalf("train size = %d want %d", len(train), wantTrain)
	}
	// Deterministic under the same seed.
	train2, _ := TrainTestSplit(examples, 0.8, 1)
	for i := range train {
		if train[i].Y != train2[i].Y {
			t.Fatal("split not deterministic")
		}
	}
}

func TestTrainTestSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("trainFrac=1 did not panic")
		}
	}()
	TrainTestSplit(linearlySeparable(10, 1), 1, 1)
}

// Property: precision, recall, F1 and accuracy are always within [0,1].
func TestQuickMetricsBounded(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		m := Metrics{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		for _, v := range []float64{m.Precision(), m.Recall(), m.F1(), m.Accuracy()} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: F1 lies between min and max of precision and recall.
func TestQuickF1Between(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		m := Metrics{TP: int(tp) + 1, FP: int(fp), FN: int(fn)}
		p, r, f1 := m.Precision(), m.Recall(), m.F1()
		lo, hi := math.Min(p, r), math.Max(p, r)
		return f1 >= lo-1e-12 && f1 <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
