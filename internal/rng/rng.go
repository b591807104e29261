// Package rng implements a small deterministic pseudo-random number generator
// with cheap independent streams. The parallel search gives every slave its
// own stream split from a single root seed, so a run is reproducible for a
// given (seed, P) pair regardless of goroutine scheduling.
//
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by its authors for exactly this splitting pattern. Only stdlib
// is used; math/rand is avoided because its global state and lock would
// serialize the slaves.
package rng

import "math/bits"

// Rand is a xoshiro256** generator. It is NOT safe for concurrent use; give
// each goroutine its own stream via Split.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64. Any seed value,
// including zero, yields a well-mixed state.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split returns a new generator whose stream is statistically independent of
// r's. It advances r by one draw, so successive Splits produce distinct
// streams.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// IntRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm fills dst with a uniform permutation of 0..len(dst)-1 (Fisher–Yates).
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's widening
// multiply with rejection, avoiding modulo bias.
func (r *Rand) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}
