package nsfv

import (
	"testing"

	"repro/internal/imagex"
)

func TestPaperThresholdsValues(t *testing.T) {
	th := PaperThresholds()
	if th.SafeBelow != 0.01 || th.NSFVAbove != 0.3 || th.LowBand != 0.05 ||
		th.LowWords != 10 || th.HighWords != 20 {
		t.Fatalf("PaperThresholds = %+v, diverges from Algorithm 1", th)
	}
}

func TestNudeModelsAreNSFV(t *testing.T) {
	c := New()
	for i := 0; i < 30; i++ {
		im := imagex.GenModel(uint64(i), i%3, imagex.PoseNude, 48)
		if c.IsSFV(im) {
			t.Fatalf("nude model %d classified SFV — detection must be 100%%", i)
		}
	}
}

func TestPartialModelsAreNSFV(t *testing.T) {
	c := New()
	for i := 0; i < 30; i++ {
		im := imagex.GenModel(uint64(100+i), i%3, imagex.PosePartial, 48)
		if c.IsSFV(im) {
			t.Fatalf("partial-nude model %d classified SFV", i)
		}
	}
}

func TestProofScreenshotsAreSFV(t *testing.T) {
	c := New()
	lines := []string{"PAYPAL DASHBOARD", "BALANCE: $431.88", "+$50.00 RECEIVED", "+$25.00 RECEIVED"}
	for i := 0; i < 10; i++ {
		im := imagex.GenScreenshot(uint64(i), lines, 160, 44)
		v := c.Classify(im)
		if !v.SFV {
			t.Fatalf("proof screenshot %d classified NSFV (score %.4f)", i, v.NSFW)
		}
	}
}

func TestErrorBannersAreSFV(t *testing.T) {
	c := New()
	im := imagex.GenErrorBanner(3, "IMAGE REMOVED TOS", 160, 40)
	if !c.IsSFV(im) {
		t.Fatal("error banner classified NSFV")
	}
}

func TestDirectoryScreenshotsAreSFV(t *testing.T) {
	// The paper: links that were not previews "pointed to error
	// messages ... or screenshots showing the directories of the
	// packs"; those were excluded from the NSFV preview set.
	c := New()
	im := imagex.GenThumbnailGrid(7, 42, 160, 110)
	v := c.Classify(im)
	if !v.SFV {
		t.Fatalf("directory screenshot classified NSFV (score %.4f words %d)", v.NSFW, v.Words)
	}
}

func TestOCRSkippedWhenDecisive(t *testing.T) {
	c := New()
	nude := imagex.GenModel(5, 0, imagex.PoseNude, 48)
	if v := c.Classify(nude); v.Words != -1 {
		t.Fatalf("OCR invoked (words=%d) for a clearly NSFV image", v.Words)
	}
	blank := imagex.GenScreenshot(1, nil, 60, 30)
	if v := c.Classify(blank); v.Words != -1 {
		t.Fatalf("OCR invoked (words=%d) for a clearly SFV image", v.Words)
	}
}

func TestPaperEvalOnValidationSet(t *testing.T) {
	corpus := BuildValidationSet(2019)
	if len(corpus) != 240 {
		t.Fatalf("validation corpus size %d, want 240 (180 + 60)", len(corpus))
	}
	c := New()
	e := c.Evaluate(corpus)
	if e.Detection != 1.0 {
		t.Fatalf("NSFV detection %.3f, paper requires 100%%", e.Detection)
	}
	// Paper: "few false positives (nearly 8%)". Allow a band.
	if e.FalsePositive > 0.25 {
		t.Fatalf("false-positive rate %.3f too high", e.FalsePositive)
	}
	if e.FalsePositive == 0 {
		t.Log("zero false positives — hard cases may be under-generated")
	}
}

func TestFalsePositivesComeFromWarmTextures(t *testing.T) {
	c := New()
	fp := 0
	for i := 0; i < 40; i++ {
		im := imagex.GenLandscape(uint64(9000+i*13), 48, true)
		if !c.IsSFV(im) {
			fp++
		}
	}
	if fp == 0 {
		t.Fatal("no skin-like landscape misclassified; the documented FP mode is absent")
	}
}

func TestTuneReachesPerfectDetection(t *testing.T) {
	corpus := BuildValidationSet(77)
	th, e := Tune(corpus)
	if e.Detection != 1.0 {
		t.Fatalf("tuned detection %.3f", e.Detection)
	}
	// Tuned thresholds must themselves evaluate identically.
	c := &Classifier{Thresholds: th}
	e2 := c.Evaluate(corpus)
	if e2 != e {
		t.Fatalf("Tune eval mismatch: %+v vs %+v", e, e2)
	}
}

func TestTuneNoWorseThanPaper(t *testing.T) {
	corpus := BuildValidationSet(123)
	_, tuned := Tune(corpus)
	paper := New().Evaluate(corpus)
	if tuned.Detection < paper.Detection {
		t.Fatalf("tuning lost detection: %.3f < %.3f", tuned.Detection, paper.Detection)
	}
	if tuned.Detection == paper.Detection && tuned.FalsePositive > paper.FalsePositive {
		t.Fatalf("tuning raised FP rate: %.3f > %.3f", tuned.FalsePositive, paper.FalsePositive)
	}
}

func TestEvaluateEmptyCorpus(t *testing.T) {
	e := New().Evaluate(nil)
	if e.Detection != 0 || e.FalsePositive != 0 || e.N != 0 {
		t.Fatalf("empty eval = %+v", e)
	}
}
