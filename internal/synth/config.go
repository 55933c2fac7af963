// Package synth generates the study's entire synthetic world from one
// seed: the CrimeBB-like forum corpus (calibrated to Table 1's
// marginals), the web of origin sites that models' images are stolen
// from (feeding the reverse-image-search index, the Wayback archive
// and the domain-classification directory), the packs and previews
// uploaded to simulated hosting sites, the PhotoDNA hashlist, the
// proof-of-earnings images and the Currency Exchange board.
//
// The real CrimeBB dataset is access-restricted and the imagery cannot
// ethically exist in a reproduction, so this generator is the data
// substitution documented in DESIGN.md. Every quantity derives from
// Config.Seed via labelled PCG streams, so any table in the study is
// exactly reproducible, and Config.Scale shrinks the corpus linearly
// while keeping rates and distribution shapes fixed.
//
// Generation is internally parallel: the random walk that draws every
// value stays sequential, while image rendering, hashing and hosting
// uploads fan out over Config.Workers goroutines with an ordered
// applier (exec.go), so the generated world is bit-identical for
// every worker count — Workers 1 is the inline reference and the
// equivalence test pins the other counts against it.
package synth

import (
	"runtime"
	"time"
)

// Config parameterises world generation.
type Config struct {
	// Seed drives every random stream.
	Seed uint64
	// Scale multiplies the paper-scale corpus sizes (1.0 ≈ 44k threads
	// / 626k posts). Typical: 0.02 in tests, 0.1 in reports.
	Scale float64
	// ImageSize is the side length of model images (default 48).
	ImageSize int
	// SkipImages disables the image world (hosting, packs, hashlist,
	// reverse index) for analyses that only need the forum corpus.
	SkipImages bool
	// Workers bounds the goroutines used for image rendering, hashing
	// and hosting uploads during generation; <= 0 means GOMAXPROCS, 1
	// forces the inline path. Workers never changes the generated
	// world (generation is bit-identical across worker counts), so
	// Canonical zeroes it: it is an execution knob, not part of the
	// world's identity, and must stay out of every cache and memo key.
	Workers int
}

// DefaultConfig returns a small, fast configuration.
func DefaultConfig() Config {
	return Config{Seed: 2019, Scale: 0.05, ImageSize: 48}
}

// Canonical returns the config with every defaulted field filled in —
// the identity under which two configs generate the same world.
// Config is comparable, so the canonical form is a cache key: the
// sweep engine's world cache shares one generated world across all
// study cells whose canonical synth configs are equal. Workers is
// zeroed: it sizes a goroutine pool and cannot move a result, so
// configs differing only in Workers share one world.
func (c Config) Canonical() Config {
	c.Workers = 0
	return c.withDefaults()
}

// EffectiveWorkers resolves the Workers knob to the goroutine count
// generation will actually use (GOMAXPROCS when unset).
func (c Config) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.ImageSize <= 0 {
		c.ImageSize = 48
	}
	if c.Seed == 0 {
		c.Seed = 2019
	}
	return c
}

// scaled returns n scaled, with a floor.
func (c Config) scaled(n int, min int) int {
	v := int(float64(n)*c.Scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// forumSpec carries the Table 1 calibration of one forum.
type forumSpec struct {
	Name      string
	Threads   int       // eWhoring-related threads
	Posts     int       // eWhoring-related posts
	FirstPost time.Time // earliest eWhoring post
	TOPs      int       // threads offering packs
	Actors    int       // actors in eWhoring conversations
	// KeywordHeadings: non-Hackforums threads were selected by the
	// 'ewhor'/'e-whor' heading search, so their headings must carry
	// the keyword.
	KeywordHeadings bool
}

func date(y int, m time.Month) time.Time {
	return time.Date(y, m, 15, 12, 0, 0, 0, time.UTC)
}

// paperForums is Table 1. "Others (4)" is modelled as four small
// forums sharing the listed totals.
var paperForums = []forumSpec{
	{Name: "Hackforums", Threads: 42292, Posts: 596827, FirstPost: date(2008, time.November), TOPs: 4027, Actors: 64035},
	{Name: "OGUsers", Threads: 1744, Posts: 23974, FirstPost: date(2017, time.April), TOPs: 76, Actors: 5586, KeywordHeadings: true},
	{Name: "BlackHatWorld", Threads: 258, Posts: 2694, FirstPost: date(2008, time.April), TOPs: 0, Actors: 1420, KeywordHeadings: true},
	{Name: "V3rmillion", Threads: 95, Posts: 1348, FirstPost: date(2016, time.February), TOPs: 6, Actors: 697, KeywordHeadings: true},
	{Name: "MPGH", Threads: 62, Posts: 922, FirstPost: date(2012, time.July), TOPs: 12, Actors: 341, KeywordHeadings: true},
	{Name: "RaidForums", Threads: 48, Posts: 405, FirstPost: date(2015, time.March), TOPs: 10, Actors: 318, KeywordHeadings: true},
	{Name: "Leakforums", Threads: 6, Posts: 160, FirstPost: date(2015, time.May), TOPs: 2, Actors: 150, KeywordHeadings: true},
	{Name: "Nulled", Threads: 6, Posts: 160, FirstPost: date(2015, time.June), TOPs: 2, Actors: 150, KeywordHeadings: true},
	{Name: "Antichat", Threads: 5, Posts: 150, FirstPost: date(2015, time.August), TOPs: 1, Actors: 145, KeywordHeadings: true},
	{Name: "Garage4Hackers", Threads: 4, Posts: 144, FirstPost: date(2016, time.January), TOPs: 1, Actors: 141, KeywordHeadings: true},
}

// datasetEnd is the last post date in the dataset (March 2019).
var datasetEnd = date(2019, time.March)

// Hackforums board categories used for the §6 interests analysis
// (Figure 5).
var hfCategories = []string{
	"Gaming", "Hacking", "Coding", "Market", "Money",
	"Tech", "Common", "Graphics", "Web",
}

// Interest mixes before/during/after eWhoring: the Figure 5 shape —
// users arrive via gaming and hacking, shift towards market boards.
var (
	interestBefore = map[string]float64{
		"Gaming": 0.30, "Hacking": 0.25, "Common": 0.12, "Tech": 0.10,
		"Coding": 0.09, "Market": 0.06, "Graphics": 0.04, "Web": 0.03,
		"Money": 0.01,
	}
	interestDuring = map[string]float64{
		"Market": 0.24, "Gaming": 0.17, "Hacking": 0.16, "Money": 0.13,
		"Common": 0.13, "Tech": 0.07, "Coding": 0.05, "Graphics": 0.03,
		"Web": 0.02,
	}
	interestAfter = map[string]float64{
		"Market": 0.29, "Common": 0.20, "Gaming": 0.14, "Hacking": 0.13,
		"Money": 0.10, "Tech": 0.06, "Coding": 0.04, "Graphics": 0.02,
		"Web": 0.02,
	}
)

// The interest mixes as WeightedPick weights in hfCategories order,
// built once: background activity draws a category per post.
var (
	weightsBefore = categoryWeights(interestBefore)
	weightsDuring = categoryWeights(interestDuring)
	weightsAfter  = categoryWeights(interestAfter)
)

func categoryWeights(mix map[string]float64) []float64 {
	weights := make([]float64, len(hfCategories))
	for i, c := range hfCategories {
		weights[i] = mix[c]
	}
	return weights
}
