// Package randx provides small, deterministic pseudo-random number
// generators used to derive the entire synthetic world from a single
// 64-bit seed.
//
// The generators are implemented from scratch (SplitMix64 for seeding
// and stream splitting, PCG-XSH-RR 64/32 for the main stream) so that
// sequences are stable across Go releases; math/rand's generator is
// documented but its convenience helpers have changed behaviour between
// versions, and reproducibility of every table in the study depends on
// bit-exact streams.
//
// A Rand is NOT safe for concurrent use. Derive independent streams
// with Split and hand one to each goroutine instead of sharing.
package randx

import "math"

// splitmix64 advances the SplitMix64 state and returns the next value.
// It is used both as a seed scrambler and as the stream splitter.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic PCG-XSH-RR 64/32 generator.
type Rand struct {
	state uint64
	inc   uint64
}

// New returns a generator seeded from seed. Two generators created with
// the same seed produce identical sequences.
func New(seed uint64) *Rand {
	s := seed
	r := &Rand{}
	r.state = splitmix64(&s)
	r.inc = splitmix64(&s) | 1 // stream selector must be odd
	r.Uint32()                 // advance past the (weak) initial state
	return r
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent's current state, and splitting
// advances the parent, so repeated Splits yield distinct children.
func (r *Rand) Split() *Rand {
	return New(uint64(r.Uint32())<<32 | uint64(r.Uint32()))
}

// SplitLabeled derives an independent child generator whose stream
// depends on both the parent seed and the label, without advancing the
// parent. Use it to give each subsystem a stable stream regardless of
// the order subsystems are initialised in.
func (r *Rand) SplitLabeled(label string) *Rand {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(r.state ^ h)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling over 32 bits when
	// possible, falling back to 64-bit modulo rejection for large n.
	// The rejection threshold (-bound % bound) is below bound, so a
	// draw whose low word is at least bound is accepted without the
	// division; the threshold is computed only for the rare draw that
	// needs it.
	if n <= math.MaxInt32 {
		bound := uint32(n)
		prod := uint64(r.Uint32()) * uint64(bound)
		if uint32(prod) < bound {
			threshold := -bound % bound
			for uint32(prod) < threshold {
				prod = uint64(r.Uint32()) * uint64(bound)
			}
		}
		return int(prod >> 32)
	}
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := r.Uint64()
		if v <= max {
			return int(v % uint64(n))
		}
	}
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("randx: Int63n with non-positive n")
	}
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := r.Uint64()
		if v <= max {
			return int64(v % uint64(n))
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(mu + sigma*Z): a log-normal variate. Used for
// heavy-tailed quantities such as per-actor earnings.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Pareto returns a Pareto(xm, alpha) variate: xm * U^(-1/alpha). Used
// for heavy-tailed post-count and reply-count distributions.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	if u == 0 {
		u = 0.5 / (1 << 53)
	}
	return xm * math.Pow(u, -1/alpha)
}

// Exp returns an exponential variate with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Poisson returns a Poisson variate with the given mean (Knuth's method
// for small means, normal approximation above 30 for speed).
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(mean + math.Sqrt(mean)*r.NormFloat64() + 0.5)
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap func.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen element of items. It panics on an
// empty slice.
func Pick[T any](r *Rand, items []T) T {
	return items[r.Intn(len(items))]
}

// WeightedPick returns an index into weights chosen with probability
// proportional to the weight. Zero and negative weights are never
// chosen. It panics if the total weight is not positive.
func (r *Rand) WeightedPick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("randx: WeightedPick with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	// Floating-point slack: fall back to the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return 0
}

// Zipf samples from a Zipf distribution over [0, n) with exponent s>0
// by inverse-CDF over precomputed weights. For repeated sampling use
// NewZipf.
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf builds a Zipf sampler over n ranks with exponent s.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("randx: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int {
	x := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
