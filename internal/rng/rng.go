// Package rng provides small, fast, deterministic random number generators
// with explicit state, used by every stochastic component of the repository
// (instance generators, workload models, experiment sweeps).
//
// The repository deliberately does not use math/rand for experiment-facing
// randomness: the stream produced by a PCG generator here is fully
// determined by (seed, stream) and is stable across Go releases, so every
// experiment table resexp prints can be regenerated bit-for-bit.
//
// The generator is PCG-XSH-RR 64/32 (O'Neill, 2014), a 64-bit LCG with a
// 32-bit output permutation. Two independent PCG32 halves are combined for
// 64-bit outputs.
package rng

import "math"

// mulConst is the multiplier of the underlying 64-bit LCG (from the PCG
// reference implementation).
const mulConst = 6364136223846793005

// defaultInc is the default odd increment used when a stream id is not
// supplied.
const defaultInc = 1442695040888963407

// PCG is a PCG-XSH-RR 64/32 generator. The zero value is not ready for use;
// construct with New or NewStream.
type PCG struct {
	state uint64
	inc   uint64 // always odd
}

// New returns a generator seeded with seed on the default stream.
func New(seed uint64) *PCG {
	return NewStream(seed, 0)
}

// NewStream returns a generator seeded with seed on the given stream.
// Distinct stream ids yield statistically independent sequences even for
// equal seeds, which lets parallel experiment workers share one logical seed.
func NewStream(seed, stream uint64) *PCG {
	p := &PCG{inc: (stream << 1) | 1}
	if stream == 0 {
		p.inc = defaultInc
	}
	// Advance as in pcg32_srandom_r: ensures good state mixing even for
	// small seeds.
	p.state = 0
	p.Uint32()
	p.state += seed
	p.Uint32()
	return p
}

// Split returns a new generator whose stream is derived from the next output
// of p. The child is independent of the parent's subsequent outputs, so a
// sweep can hand one child to each of its workers.
func (p *PCG) Split() *PCG {
	seed := p.Uint64()
	stream := p.Uint64() | 1
	return NewStream(seed, stream)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (p *PCG) Uint32() uint32 {
	old := p.state
	p.state = old*mulConst + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (p *PCG) Uint64() uint64 {
	hi := uint64(p.Uint32())
	lo := uint64(p.Uint32())
	return hi<<32 | lo
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(p.Int63n(int64(n)))
}

// Int63n returns a uniform int64 in [0, n) using rejection sampling to avoid
// modulo bias. It panics if n <= 0.
func (p *PCG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	if n&(n-1) == 0 { // power of two
		return int64(p.Uint64() & uint64(n-1))
	}
	max := uint64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := p.Uint64() >> 1
	for v > max {
		v = p.Uint64() >> 1
	}
	return int64(v % uint64(n))
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (p *PCG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + p.Intn(hi-lo+1)
}

// Int63Range returns a uniform int64 in [lo, hi] inclusive.
func (p *PCG) Int63Range(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: Int63Range with hi < lo")
	}
	return lo + p.Int63n(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (p *PCG) Float64() float64 {
	// 53 random bits scaled into [0,1).
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Expo returns an exponentially distributed float64 with the given mean.
func (p *PCG) Expo(mean float64) float64 {
	u := p.Float64()
	for u == 0 {
		u = p.Float64()
	}
	return -mean * math.Log(u)
}

// LogUniform returns a float64 log-uniformly distributed in [lo, hi].
// It panics unless 0 < lo <= hi.
func (p *PCG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("rng: LogUniform needs 0 < lo <= hi")
	}
	if lo == hi {
		return lo
	}
	return math.Exp(math.Log(lo) + p.Float64()*(math.Log(hi)-math.Log(lo)))
}

// Bool returns true with probability prob.
func (p *PCG) Bool(prob float64) bool {
	return p.Float64() < prob
}

// Perm returns a uniform random permutation of [0, n).
func (p *PCG) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	p.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (p *PCG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s — the classic heavy-tailed popularity law of multi-tenant
// workloads (a few tenants dominate, a long tail trickles). The
// cumulative weights are precomputed once so Next costs one uniform draw
// plus a binary search, and the sequence is fully determined by the
// generator's state, like every other draw in this package.
type Zipf struct {
	p   *PCG
	cdf []float64 // cumulative, normalised to end at 1
}

// NewZipf builds a sampler over [0, n) with exponent s. It panics unless
// n >= 1 and s >= 0 (s = 0 degenerates to uniform, large s concentrates
// mass on rank 0).
func NewZipf(p *PCG, n int, s float64) *Zipf {
	if n < 1 || s < 0 || math.IsNaN(s) {
		panic("rng: NewZipf needs n >= 1 and s >= 0")
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{p: p, cdf: cdf}
}

// Next draws the next rank.
func (z *Zipf) Next() int {
	u := z.p.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
