// Package rng implements a small, fully deterministic pseudo-random number
// generator (splitmix64) plus the distributions needed by the Plummer model
// generator. It is used instead of math/rand so that every experiment in
// the repository is bit-reproducible regardless of the Go release.
package rng

import "math"

// RNG is a splitmix64 generator. The zero value is a valid generator seeded
// with 0; use New to seed explicitly.
type RNG struct {
	state uint64

	haveGauss bool
	gauss     float64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Gauss returns a standard normal variate (Box-Muller, cached pair).
func (r *RNG) Gauss() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	// Avoid log(0) by keeping u1 in (0,1].
	u1 := 1.0 - r.Float64()
	u2 := r.Float64()
	m := math.Sqrt(-2 * math.Log(u1))
	r.gauss = m * math.Sin(2*math.Pi*u2)
	r.haveGauss = true
	return m * math.Cos(2*math.Pi*u2)
}

// UnitSphere returns a point uniformly distributed on the surface of the
// unit sphere, as (x, y, z).
func (r *RNG) UnitSphere() (x, y, z float64) {
	// Marsaglia's rejection method.
	for {
		a := r.Range(-1, 1)
		b := r.Range(-1, 1)
		s := a*a + b*b
		if s >= 1 {
			continue
		}
		t := 2 * math.Sqrt(1-s)
		return a * t, b * t, 1 - 2*s
	}
}
