// Package rng provides deterministic pseudo-random number generation for
// reproducible experiment sweeps.
//
// Every graph generator and Monte-Carlo estimator in gcbench draws from an
// explicit *rng.Source seeded by the caller; nothing uses the global
// math/rand state, so a sweep re-run with the same plan produces
// byte-identical graphs and behavior corpora.
//
// The core generator is xoshiro256** seeded through SplitMix64, the standard
// pairing recommended by the xoshiro authors: SplitMix64 decorrelates
// arbitrary user seeds (including 0 and small integers), and xoshiro256**
// passes BigCrush while costing a handful of ALU ops per draw.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Source struct {
	s0, s1, s2, s3 uint64

	// Cached second normal variate from the polar method.
	spare     float64
	haveSpare bool
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source deterministically derived from seed. Distinct seeds
// yield decorrelated streams; the same seed always yields the same stream.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	return &r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded rejection keeps the distribution
// exactly uniform.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire 2019: multiply-shift with rejection of the biased low range.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, n)
		}
	}
	return hi
}

// NormFloat64 returns a standard normal variate via the polar (Marsaglia)
// method. A cached second variate makes the amortized cost one pair of
// uniforms per two normals.
func (r *Source) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}
