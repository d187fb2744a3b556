package sim

import (
	"math"
	"time"
)

// RNG is a small, fast, seed-stable random number generator (PCG-XSH-RR
// 64/32). It is deliberately independent of math/rand so that simulation
// results are reproducible across Go releases and platforms.
type RNG struct {
	state uint64
	inc   uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{inc: (seed << 1) | 1}
	r.state = splitmix64(seed)
	r.uint32()
	return r
}

// Fork derives an independent generator from this one; streams of the parent
// and child do not overlap in practice. Useful for giving each model
// component its own stream so adding draws in one component does not perturb
// another.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uint32 returns a uniformly distributed 32-bit value.
func (r *RNG) uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	return uint64(r.uint32())<<32 | uint64(r.uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [a, b).
func (r *RNG) Uniform(a, b float64) float64 {
	return a + (b-a)*r.Float64()
}

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Jitter returns d perturbed by a uniform factor in [1-frac, 1+frac).
// Jitter with frac <= 0 returns d unchanged.
func (r *RNG) Jitter(d time.Duration, frac float64) time.Duration {
	if frac <= 0 {
		return d
	}
	return time.Duration(float64(d) * r.Uniform(1-frac, 1+frac))
}
