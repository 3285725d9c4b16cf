// Package rng provides deterministic, splittable pseudo-random number
// streams for the simulator.
//
// Every stochastic decision in the repository draws from a named Stream
// derived from a root experiment seed. Streams are cheap value types built
// on xoshiro256** seeded through SplitMix64, so a (seed, path) pair always
// yields the same sequence regardless of which engine — sequential or
// concurrent — consumes it. That property is what makes the goroutine-per-
// agent engine bit-identical to the sequential one.
package rng

import "math"

// Stream is a deterministic pseudo-random number generator
// (xoshiro256**). The zero value is NOT usable; construct streams with New
// or derive them with Child/Named.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only to expand seeds into full generator state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from seed. Distinct seeds give statistically
// independent sequences.
func New(seed uint64) *Stream {
	st := seed
	s := &Stream{}
	s.s0 = splitMix64(&st)
	s.s1 = splitMix64(&st)
	s.s2 = splitMix64(&st)
	s.s3 = splitMix64(&st)
	// xoshiro forbids the all-zero state; seed 0 would otherwise produce it
	// with probability ~2^-256, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
	return s
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// DeriveSeed expands (base, index) into the index-th seed of a SplitMix64
// stream rooted at base. Successive indices yield statistically
// independent seeds — unlike base+index, whose xoshiro initial states are
// correlated across nearby runs. RunMany-style replication loops use this
// to give run r the seed DeriveSeed(baseSeed, r), which is a pure function
// of (base, index) and therefore identical no matter which worker, or how
// many workers, execute the run.
func DeriveSeed(base, index uint64) uint64 {
	st := base + index*0x9e3779b97f4a7c15
	return splitMix64(&st)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Child derives an independent sub-stream identified by the integer path
// ids. The same (parent seed, path) always yields the same child, and
// different paths yield independent children. Deriving a child does not
// advance the parent.
func (s *Stream) Child(path ...uint64) *Stream {
	// Mix the current state with the path through SplitMix64 so children of
	// the same parent with different paths decorrelate fully.
	st := s.s0 ^ rotl(s.s1, 13) ^ rotl(s.s2, 29) ^ rotl(s.s3, 41)
	for _, p := range path {
		st ^= p + 0x9e3779b97f4a7c15
		st = splitMix64(&st)
	}
	return New(st)
}

// Named derives an independent sub-stream identified by a label. Equal
// labels yield equal children; the parent is not advanced.
func (s *Stream) Named(label string) *Stream {
	// FNV-1a over the label, then fold into Child.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return s.Child(h)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's unbiased bounded generation.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + t>>32 + (t&mask+a0*b1)>>32
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (s *Stream) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// Angle returns a uniform angle in [0, 2π).
func (s *Stream) Angle() float64 {
	return s.Float64() * 2 * math.Pi
}

// Shuffle permutes n elements in place using the provided swap function
// (Fisher–Yates).
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen element of xs. It panics on an empty
// slice.
func Pick[T any](s *Stream, xs []T) T {
	return xs[s.Intn(len(xs))]
}
