// Package sweep turns the single-study pipeline into a fleet of
// studies: it plans a grid over study parameters (seeds, scales,
// annotation sizes, worker counts), executes the resulting cells
// concurrently on the core pipeline — in-process or against a live
// study service — and folds every cell's Summary into deterministic
// cross-seed aggregates: per-artefact mean / stddev / 95% CI,
// scale-sensitivity slopes and a paper-vs-measured stability table.
//
// EXPERIMENTS.md's single-seed columns assert calibration; a sweep
// measures it. Because each cell is a full study, a remote sweep also
// doubles as a load generator: N concurrent POST /v1/study requests
// exercising the service's worker pool, request coalescing and result
// cache under real traffic.
package sweep

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/synth"
)

// Cell is one fully-specified study configuration — a point of the
// sweep grid. All fields are explicit (normalize fills defaults), so a
// cell means the same study locally and on a remote service.
type Cell struct {
	Seed             uint64  `json:"seed"`
	Scale            float64 `json:"scale"`
	Annotation       int     `json:"annotation_size"`
	Workers          int     `json:"workers"`
	CrawlConcurrency int     `json:"crawl_concurrency"`
	// Faults is the cell's faultx fault-injection profile ("" for
	// none) — the adversary axis of the adversarial-hosts preset.
	Faults string `json:"faults,omitempty"`
}

// normalize fills zero fields with the same defaults core.NewStudy and
// studysvc's canonicalization apply, so a cell's identity is
// independent of how sparsely it was written down.
func (c Cell) normalize() Cell {
	def := core.DefaultOptions()
	if c.Seed == 0 {
		c.Seed = def.Synth.Seed
	}
	if c.Scale <= 0 {
		c.Scale = def.Synth.Scale
	}
	if c.Annotation <= 0 {
		c.Annotation = def.AnnotationSize
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	if c.CrawlConcurrency <= 0 {
		c.CrawlConcurrency = def.CrawlConcurrency
	}
	c.Faults = strings.TrimSpace(c.Faults)
	if c.Faults == "off" {
		c.Faults = ""
	}
	return c
}

// Options expands the cell into the study options it runs with.
func (c Cell) Options() core.Options {
	c = c.normalize()
	return core.Options{
		Synth:            synth.Config{Seed: c.Seed, Scale: c.Scale},
		AnnotationSize:   c.Annotation,
		Workers:          c.Workers,
		CrawlConcurrency: c.CrawlConcurrency,
		Faults:           c.Faults,
	}
}

// String renders the cell compactly for logs and error ledgers. The
// faults segment appears only when set, so fault-free renderings stay
// byte-identical to the pre-faultx era.
func (c Cell) String() string {
	s := fmt.Sprintf("seed=%d scale=%g annotation=%d workers=%d crawl=%d",
		c.Seed, c.Scale, c.Annotation, c.Workers, c.CrawlConcurrency)
	if c.Faults != "" {
		s += fmt.Sprintf(" faults=%q", c.Faults)
	}
	return s
}

// Grid is the cross product of study parameter values. Empty
// dimensions collapse to the default value, so a grid only names the
// axes it actually varies.
type Grid struct {
	Seeds              []uint64  `json:"seeds,omitempty"`
	Scales             []float64 `json:"scales,omitempty"`
	Annotations        []int     `json:"annotations,omitempty"`
	Workers            []int     `json:"workers,omitempty"`
	CrawlConcurrencies []int     `json:"crawl_concurrencies,omitempty"`
	Faults             []string  `json:"faults,omitempty"`
}

// Cells expands the grid in deterministic plan order: scale outermost,
// then annotation, workers, crawl concurrency, fault profile, and
// seeds innermost — so the cells of one cross-seed group are adjacent
// in the plan.
func (g Grid) Cells() []Cell {
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	faults := g.Faults
	if len(faults) == 0 {
		faults = []string{""}
	}
	scales := g.Scales
	if len(scales) == 0 {
		scales = []float64{0}
	}
	annotations := g.Annotations
	if len(annotations) == 0 {
		annotations = []int{0}
	}
	workers := g.Workers
	if len(workers) == 0 {
		workers = []int{0}
	}
	crawls := g.CrawlConcurrencies
	if len(crawls) == 0 {
		crawls = []int{0}
	}
	var cells []Cell
	for _, scale := range scales {
		for _, ann := range annotations {
			for _, w := range workers {
				for _, cc := range crawls {
					for _, f := range faults {
						for _, seed := range seeds {
							cells = append(cells, Cell{
								Seed: seed, Scale: scale, Annotation: ann,
								Workers: w, CrawlConcurrency: cc, Faults: f,
							}.normalize())
						}
					}
				}
			}
		}
	}
	return cells
}

// Preset names for Spec.Preset.
const (
	PresetCrossSeed   = "cross-seed-stability"
	PresetScale       = "scale-sensitivity"
	PresetConcurrency = "crawler-concurrency"
	PresetAdversarial = "adversarial-hosts"
)

// Presets lists the named scenario presets in display order.
func Presets() []string {
	return []string{PresetCrossSeed, PresetScale, PresetConcurrency, PresetAdversarial}
}

// adversaryLadder is the fault-intensity axis of the adversarial-hosts
// preset: the fault-free baseline, a retryable-only rate limiter (the
// artefacts must not move — only timings may), then increasing link
// rot, then rot plus two permanently dead hosts (the paper's oron
// story happening mid-study). The ladder measures detection recall vs
// adversary strength.
func adversaryLadder() []string {
	return []string{
		"",
		"ratelimit=*;failures=2;retry-after=1ms",
		"rot=0.15",
		"rot=0.3",
		"rot=0.3;down=oron.com,zippyshare.com",
	}
}

// Spec is the serializable description of a sweep: a named preset
// around base parameters, or an explicit grid. cmd/ewsweep builds it
// from its flags.
type Spec struct {
	// Preset selects a named scenario (empty with a Grid for a custom
	// sweep).
	Preset string `json:"preset,omitempty"`
	// Seeds is how many consecutive seeds a preset sweeps (default 5).
	Seeds int `json:"seeds,omitempty"`
	// Seed is the base seed (default 2019); preset seeds are
	// Seed, Seed+1, ... Seed+Seeds-1.
	Seed uint64 `json:"seed,omitempty"`
	// Scale, Annotation, Workers and CrawlConcurrency are the base cell
	// parameters presets hold fixed (zero = study default).
	Scale            float64 `json:"scale,omitempty"`
	Annotation       int     `json:"annotation_size,omitempty"`
	Workers          int     `json:"workers,omitempty"`
	CrawlConcurrency int     `json:"crawl_concurrency,omitempty"`
	// Faults is the base fault profile ("" = none) — held fixed by
	// presets other than adversarial-hosts, which sweeps its own fault
	// ladder instead.
	Faults string `json:"faults,omitempty"`
	// Grid, when set, overrides the preset entirely.
	Grid *Grid `json:"grid,omitempty"`
	// Parallelism bounds how many cells run at once (default 2).
	Parallelism int `json:"parallelism,omitempty"`
}

// Name returns the sweep's display name.
func (sp Spec) Name() string {
	if sp.Grid != nil {
		return "custom-grid"
	}
	if sp.Preset == "" {
		return "single"
	}
	return sp.Preset
}

// presetSeeds resolves the seed-axis length a preset plans: an
// explicit Seeds wins; otherwise the empty spec runs one cell, the
// scale ladder and the fault ladder default to 3 seeds and the other
// presets to 5.
func (sp Spec) presetSeeds() int {
	if sp.Seeds > 0 {
		return sp.Seeds
	}
	switch sp.Preset {
	case "":
		return 1
	case PresetScale, PresetAdversarial:
		return 3
	default:
		return 5
	}
}

// seedRange returns n consecutive seeds starting at base.
func seedRange(base uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return seeds
}

// Cells expands the spec into its plan. An unknown preset is an error
// (the grid path never fails).
func (sp Spec) Cells() ([]Cell, error) {
	base := Cell{
		Seed: sp.Seed, Scale: sp.Scale, Annotation: sp.Annotation,
		Workers: sp.Workers, CrawlConcurrency: sp.CrawlConcurrency,
		Faults: sp.Faults,
	}.normalize()
	if sp.Grid != nil {
		g := *sp.Grid
		// The base cell fills the dimensions the grid leaves open; an
		// open seed axis still honours Seeds, so "-scales 0.01,0.02
		// -seeds 3" crosses the scales with three seeds.
		if len(g.Seeds) == 0 {
			n := sp.Seeds
			if n <= 0 {
				n = 1
			}
			g.Seeds = seedRange(base.Seed, n)
		}
		if len(g.Scales) == 0 {
			g.Scales = []float64{base.Scale}
		}
		if len(g.Annotations) == 0 {
			g.Annotations = []int{base.Annotation}
		}
		if len(g.Workers) == 0 {
			g.Workers = []int{base.Workers}
		}
		if len(g.CrawlConcurrencies) == 0 {
			g.CrawlConcurrencies = []int{base.CrawlConcurrency}
		}
		if len(g.Faults) == 0 {
			g.Faults = []string{base.Faults}
		}
		return g.Cells(), nil
	}
	seeds := sp.presetSeeds()
	switch sp.Preset {
	case "", PresetCrossSeed:
		// N worlds differing only in seed: the variance of every
		// artefact across them is the calibration claim, measured.
		return Grid{
			Seeds:       seedRange(base.Seed, seeds),
			Scales:      []float64{base.Scale},
			Annotations: []int{base.Annotation}, Workers: []int{base.Workers},
			CrawlConcurrencies: []int{base.CrawlConcurrency},
			Faults:             []string{base.Faults},
		}.Cells(), nil
	case PresetScale:
		// A scale ladder per seed: slopes of artefact-vs-scale separate
		// quantities that grow with the world from calibrated rates.
		return Grid{
			Seeds:       seedRange(base.Seed, seeds),
			Scales:      scaleLadder(base.Scale),
			Annotations: []int{base.Annotation}, Workers: []int{base.Workers},
			CrawlConcurrencies: []int{base.CrawlConcurrency},
			Faults:             []string{base.Faults},
		}.Cells(), nil
	case PresetConcurrency:
		// One world crawled at 1/2/4/8 crawler workers: artefacts must
		// not move (determinism under concurrency), only timings may.
		return Grid{
			Seeds:       seedRange(base.Seed, seeds),
			Scales:      []float64{base.Scale},
			Annotations: []int{base.Annotation}, Workers: []int{base.Workers},
			CrawlConcurrencies: []int{1, 2, 4, 8},
			Faults:             []string{base.Faults},
		}.Cells(), nil
	case PresetAdversarial:
		// Each seed's world crawled under the fault ladder: detection
		// recall (matches, unique images, proofs) vs adversary
		// strength, with the retryable-only rung pinning bit-identity.
		return Grid{
			Seeds:       seedRange(base.Seed, seeds),
			Scales:      []float64{base.Scale},
			Annotations: []int{base.Annotation}, Workers: []int{base.Workers},
			CrawlConcurrencies: []int{base.CrawlConcurrency},
			Faults:             adversaryLadder(),
		}.Cells(), nil
	default:
		return nil, fmt.Errorf("sweep: unknown preset %q (have %v)", sp.Preset, Presets())
	}
}

// groupKey identifies a cross-seed group: every grid dimension except
// the seed.
type groupKey struct {
	Scale            float64
	Annotation       int
	Workers          int
	CrawlConcurrency int
	Faults           string
}

func (k groupKey) String() string {
	s := fmt.Sprintf("scale=%g annotation=%d workers=%d crawl=%d",
		k.Scale, k.Annotation, k.Workers, k.CrawlConcurrency)
	if k.Faults != "" {
		s += fmt.Sprintf(" faults=%q", k.Faults)
	}
	return s
}

// sortGroupKeys orders keys by (scale, annotation, workers, crawl,
// faults) so aggregate output is stable regardless of map iteration.
func sortGroupKeys(keys []groupKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Scale != b.Scale {
			return a.Scale < b.Scale
		}
		if a.Annotation != b.Annotation {
			return a.Annotation < b.Annotation
		}
		if a.Workers != b.Workers {
			return a.Workers < b.Workers
		}
		if a.CrawlConcurrency != b.CrawlConcurrency {
			return a.CrawlConcurrency < b.CrawlConcurrency
		}
		return a.Faults < b.Faults
	})
}

// scaleLadder builds the scale-sensitivity ladder around a base scale:
// half, base, 1.5× and 2×, with rungs outside the sane range dropped.
// The base scale itself always survives — a fully-clamped ladder must
// still sweep the scale that was asked for, never silently substitute
// the default.
func scaleLadder(base float64) []float64 {
	ladder := []float64{base / 2, base, base * 1.5, base * 2}
	out := ladder[:0]
	for _, s := range ladder {
		if s == base || (s >= 0.005 && s <= 1.0) {
			out = append(out, s)
		}
	}
	return out
}
