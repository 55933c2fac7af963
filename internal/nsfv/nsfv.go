// Package nsfv implements the paper's Not-Safe-For-Viewing classifier
// (§4.4): the set of heuristics in Algorithm 1 that combines the
// OpenNSFW nudity score with the OCR word count to decide whether a
// researcher may look at an image.
//
// The thresholds are the paper's, and the package also reproduces the
// tuning process: a validation set of 180 labelled images of sexual
// and non-sexual content plus 60 text/non-text images (240 total),
// over which the thresholds were chosen to reach 100% NSFV detection
// with few false positives (~8%).
package nsfv

import (
	"repro/internal/imagex"
	"repro/internal/nsfw"
	"repro/internal/ocr"
)

// Thresholds parameterise Algorithm 1. The zero value is invalid; use
// PaperThresholds.
type Thresholds struct {
	// SafeBelow: images scoring under this are SFV outright.
	SafeBelow float64
	// NSFVAbove: images scoring over this are NSFV outright.
	NSFVAbove float64
	// LowBand: images scoring under this (but over SafeBelow) are SFV
	// if OCR finds more than LowWords words.
	LowBand  float64
	LowWords int
	// Images in [LowBand, NSFVAbove] are SFV if OCR finds more than
	// HighWords words.
	HighWords int
}

// PaperThresholds returns Algorithm 1 exactly as printed:
//
//	if NSFW < 0.01 return SFV
//	else if NSFW > 0.3 return NSFV
//	else if NSFW < 0.05 return OCR > 10
//	else return OCR > 20
func PaperThresholds() Thresholds {
	return Thresholds{
		SafeBelow: 0.01,
		NSFVAbove: 0.3,
		LowBand:   0.05,
		LowWords:  10,
		HighWords: 20,
	}
}

// Classifier combines the nudity score and OCR under a threshold set.
type Classifier struct {
	Thresholds Thresholds
}

// New returns the classifier with the paper's calibration.
func New() *Classifier {
	return &Classifier{Thresholds: PaperThresholds()}
}

// Verdict is the outcome of classifying one image.
type Verdict struct {
	SFV  bool
	NSFW float64
	// Words and Text are what OCR recognised; Words is -1 (and Text
	// empty) when the score decided alone and OCR did not run.
	Words int
	Text  string
}

// Classify runs Algorithm 1 on the image. It only invokes OCR when the
// decision needs it, as the pipeline does (OCR is the expensive step).
func (c *Classifier) Classify(im *imagex.Image) Verdict {
	return c.ClassifyScored(im, nsfw.Score(im))
}

// ClassifyScored runs Algorithm 1 on an image whose nudity score is
// already known (the study scores crawled images from their digests),
// reading the image only if the decision needs OCR.
func (c *Classifier) ClassifyScored(im *imagex.Image, score float64) Verdict {
	t := c.Thresholds
	switch {
	case score < t.SafeBelow:
		return Verdict{SFV: true, NSFW: score, Words: -1}
	case score > t.NSFVAbove:
		return Verdict{SFV: false, NSFW: score, Words: -1}
	}
	rec := ocr.Recognize(im)
	limit := t.HighWords
	if score < t.LowBand {
		limit = t.LowWords
	}
	return Verdict{SFV: rec.Words > limit, NSFW: score, Words: rec.Words, Text: rec.Text}
}

// IsSFV reports whether the image is Safe-For-Viewing.
func (c *Classifier) IsSFV(im *imagex.Image) bool { return c.Classify(im).SFV }

// --- Validation harness ----------------------------------------------

// LabeledImage pairs an image with its ground truth (true = the image
// is indecent, i.e. must be NSFV).
type LabeledImage struct {
	Image    *imagex.Image
	Indecent bool
	Kind     string
}

// BuildValidationSet reproduces the paper's tuning corpus: 180 images
// "including sexual and non-sexual content" (the Lopes et al. nude-
// detection set stand-in) plus 60 images "with textual content (e.g.,
// documents, bills, source code, etc.) and without textual content
// (including landscapes, screenshots of virtual games, or pictures
// taken from random people)".
func BuildValidationSet(seed uint64) []LabeledImage {
	// 90 sexual + 90 non-sexual + 30 textual + 30 non-textual images.
	out := make([]LabeledImage, 0, 240)
	// 90 sexual images: nude and partial poses.
	for i := 0; i < 90; i++ {
		pose := imagex.PoseNude
		if i%3 == 0 {
			pose = imagex.PosePartial
		}
		out = append(out, LabeledImage{
			Image:    imagex.GenModel(seed+uint64(i), i%5, pose, 48),
			Indecent: true,
			Kind:     "model-" + pose.String(),
		})
	}
	// 90 non-sexual images: everyday photos of people, landscapes —
	// half of the third group with skin-like (sand/wood) textures, the
	// documented hard cases that produce the ~8% false positives.
	for i := 0; i < 90; i++ {
		var im *imagex.Image
		kind := ""
		switch i % 3 {
		case 0:
			im = imagex.GenCasualPerson(seed+uint64(1000+i), 48)
			kind = "person-casual"
		case 1:
			im = imagex.GenLandscape(seed+uint64(2000+i), 48, false)
			kind = "landscape"
		default:
			warm := i%6 == 2
			im = imagex.GenLandscape(seed+uint64(3000+i), 48, warm)
			if warm {
				kind = "landscape-warm"
			} else {
				kind = "landscape"
			}
		}
		out = append(out, LabeledImage{Image: im, Indecent: false, Kind: kind})
	}
	// 30 textual images: documents, bills, source code.
	textSets := [][]string{
		{"INVOICE #4481", "TOTAL: $129.99", "DUE: 05/01", "PAY TO: ACME INC", "REF: 99-X2"},
		{"FUNC MAIN() (", "PRINT(X+1)", "RETURN 0", ") END", "OK: BUILD PASS"},
		{"DEAR SIR,", "PLEASE FIND", "ATTACHED THE", "SIGNED FORMS", "REGARDS, J."},
	}
	for i := 0; i < 30; i++ {
		lines := textSets[i%len(textSets)]
		out = append(out, LabeledImage{
			Image:    imagex.GenScreenshot(seed+uint64(4000+i), lines, 150, 60),
			Indecent: false,
			Kind:     "document",
		})
	}
	// 30 non-textual, non-sexual images: game screenshots, random
	// photos.
	for i := 0; i < 30; i++ {
		out = append(out, LabeledImage{
			Image:    imagex.GenLandscape(seed+uint64(5000+i), 48, false),
			Indecent: false,
			Kind:     "game",
		})
	}
	return out
}

// Eval reports how a threshold set performs on a labelled corpus.
type Eval struct {
	// Detection is the fraction of indecent images classified NSFV.
	// The paper requires 1.0 ("100% detection of NSFV images").
	Detection float64
	// FalsePositive is the fraction of decent images classified NSFV
	// (the paper reports "nearly 8%").
	FalsePositive float64
	N             int
}

// Evaluate runs the classifier over the corpus.
func (c *Classifier) Evaluate(corpus []LabeledImage) Eval {
	indecent, detected := 0, 0
	decent, fps := 0, 0
	for _, li := range corpus {
		sfv := c.IsSFV(li.Image)
		if li.Indecent {
			indecent++
			if !sfv {
				detected++
			}
		} else {
			decent++
			if !sfv {
				fps++
			}
		}
	}
	e := Eval{N: len(corpus)}
	if indecent > 0 {
		e.Detection = float64(detected) / float64(indecent)
	}
	if decent > 0 {
		e.FalsePositive = float64(fps) / float64(decent)
	}
	return e
}

// Tune reproduces the semi-automatic threshold search: it sweeps
// candidate threshold combinations over the validation corpus and
// returns the set with the fewest false positives among those with
// perfect NSFV detection (ties broken towards the more conservative,
// i.e. lower, NSFVAbove). If no combination reaches perfect detection
// the one with the highest detection wins.
func Tune(corpus []LabeledImage) (Thresholds, Eval) {
	safeBelows := []float64{0.005, 0.01, 0.02}
	nsfvAboves := []float64{0.2, 0.3, 0.4, 0.5}
	lowBands := []float64{0.03, 0.05, 0.1}
	lowWords := []int{5, 10, 15}
	highWords := []int{15, 20, 30}

	// Precompute the expensive per-image measurements once; the sweep
	// then evaluates each threshold combination on cached values.
	type measured struct {
		score    float64
		words    int
		indecent bool
	}
	cache := make([]measured, len(corpus))
	for i, li := range corpus {
		cache[i] = measured{
			score:    nsfw.Score(li.Image),
			words:    ocr.WordCount(li.Image),
			indecent: li.Indecent,
		}
	}
	evalCached := func(t Thresholds) Eval {
		indecent, detected, decent, fps := 0, 0, 0, 0
		for _, m := range cache {
			var sfv bool
			switch {
			case m.score < t.SafeBelow:
				sfv = true
			case m.score > t.NSFVAbove:
				sfv = false
			case m.score < t.LowBand:
				sfv = m.words > t.LowWords
			default:
				sfv = m.words > t.HighWords
			}
			if m.indecent {
				indecent++
				if !sfv {
					detected++
				}
			} else {
				decent++
				if !sfv {
					fps++
				}
			}
		}
		e := Eval{N: len(cache)}
		if indecent > 0 {
			e.Detection = float64(detected) / float64(indecent)
		}
		if decent > 0 {
			e.FalsePositive = float64(fps) / float64(decent)
		}
		return e
	}

	var best Thresholds
	var bestEval Eval
	haveBest := false
	better := func(e Eval, t Thresholds) bool {
		if !haveBest {
			return true
		}
		if e.Detection != bestEval.Detection {
			return e.Detection > bestEval.Detection
		}
		if e.FalsePositive != bestEval.FalsePositive {
			return e.FalsePositive < bestEval.FalsePositive
		}
		return t.NSFVAbove < best.NSFVAbove
	}
	for _, sb := range safeBelows {
		for _, na := range nsfvAboves {
			for _, lb := range lowBands {
				if lb <= sb || lb >= na {
					continue
				}
				for _, lw := range lowWords {
					for _, hw := range highWords {
						if hw < lw {
							continue
						}
						t := Thresholds{SafeBelow: sb, NSFVAbove: na, LowBand: lb, LowWords: lw, HighWords: hw}
						e := evalCached(t)
						if better(e, t) {
							best, bestEval, haveBest = t, e, true
						}
					}
				}
			}
		}
	}
	return best, bestEval
}
