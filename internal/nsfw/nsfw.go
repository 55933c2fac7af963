// Package nsfw is the reproduction's stand-in for Yahoo's OpenNSFW
// deep-learning model: it assigns each image a probability-like score
// in [0, 1] that the image contains nudity.
//
// Instead of a neural network (no training data can exist for this
// study's imagery), the scorer measures two pixel statistics of the
// synthetic raster: the fraction of skin-band pixels and their spatial
// coherence (bodies are contiguous blobs; scattered skin-valued noise
// is not). The resulting score lands in the bands the paper reports:
// non-nude images below 0.3, clothed models between roughly 0.1 and
// 0.7, nude models above 0.3 — which is all Algorithm 1 consumes.
package nsfw

import (
	"math"

	"repro/internal/imagex"
)

// Score returns the nudity score of the image in [0, 1].
func Score(im *imagex.Image) float64 { return ScoreSkin(im.SkinStats()) }

// ScoreSkin maps an image's skin statistics to its nudity score in
// [0, 1]. The study scores crawled images from the statistics their
// digest carries, so no stage rescans a crawled raster to score it.
//
// The mapping is convex (a power curve), mirroring how OpenNSFW
// behaves on real imagery: clearly innocuous photos — even ones
// containing some skin, like a person photographed at a distance —
// score well below 0.01, while the score climbs steeply once skin
// dominates the frame. The calibration is fixed: a coherence gain of
// 3, a response exponent of 1.7 and a final gain of 1.6.
func ScoreSkin(s imagex.Skin) float64 {
	cmul := 3 * s.Coherence
	if cmul > 1 {
		cmul = 1
	}
	raw := s.Fraction * (0.6 + 1.4*cmul)
	score := 1.6 * math.Pow(raw, 1.7)
	if score > 1 {
		score = 1
	}
	if score < 0 {
		score = 0
	}
	return score
}
