package nbody

import (
	"math"
	"testing"

	"upcbh/internal/rng"
	"upcbh/internal/vec"
)

// accumPair is how the charged force walks of internal/core use
// PairKernel: displacement and squared distance outside, the sums updated
// from the two returned factors.
func accumPair(acc *vec.V3, phi *float64, pos, at vec.V3, m, epsSq float64) {
	d := at.Sub(pos)
	s, mr := PairKernel(d.Len2(), m, epsSq)
	*acc = acc.AddScaled(d, s)
	*phi -= mr
}

// sameFloat is bit equality (so -0 is not +0), with any NaN equal to any
// NaN: at coincident points with no softening both forms must go
// non-finite together.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

type pairCase struct {
	at       vec.V3
	m, epsSq float64
}

// checkPairStream accumulates a stream of interactions both ways and
// compares the sums after every one.
func checkPairStream(t *testing.T, pos vec.V3, stream []pairCase) {
	t.Helper()
	var accK, accR vec.V3
	var phiK, phiR float64
	for i, c := range stream {
		accumPair(&accK, &phiK, pos, c.at, c.m, c.epsSq)
		InteractAccum(&accR, &phiR, pos, c.at, c.m, c.epsSq)
		if !sameFloat(accK.X, accR.X) || !sameFloat(accK.Y, accR.Y) || !sameFloat(accK.Z, accR.Z) || !sameFloat(phiK, phiR) {
			t.Fatalf("after interaction %d (%+v from %v): kernel {%v %.17g}, InteractAccum {%v %.17g}",
				i, c, pos, accK, phiK, accR, phiR)
		}
	}
}

// TestPairKernelMatchesInteractAccum walks the edges: coincident points
// with and without softening, subnormal and huge separations (d2
// underflows to zero, overflows to +Inf), zero and negative mass.
func TestPairKernelMatchesInteractAccum(t *testing.T) {
	pos := vec.V3{X: 0.25, Y: -1.5, Z: 3}
	off := func(dx, dy, dz float64) vec.V3 { return vec.V3{X: pos.X + dx, Y: pos.Y + dy, Z: pos.Z + dz} }
	streams := map[string][]pairCase{
		"ordinary":           {{off(1, 2, -3), 0.5, 0.0025}, {off(-0.1, 0.01, 7), 2, 0.0025}, {off(1e-3, 0, 0), 1e-3, 0.0025}},
		"coincident-soft":    {{pos, 1, 0.0025}, {off(1, 1, 1), 1, 0.0025}},
		"coincident-eps0":    {{off(1, 1, 1), 1, 0}, {pos, 1, 0}, {off(1, 1, 1), 1, 0}},
		"coincident-eps0-m0": {{pos, 0, 0}},
		"subnormal":          {{vec.V3{X: 5e-324}, 1, 0}, {vec.V3{X: 1e-310, Y: -3e-320}, 2, 0}, {vec.V3{X: 1e-310}, 2, 1e-300}},
		"tiny":               {{vec.V3{X: 1e-150}, 1, 0}, {vec.V3{X: 1e-150, Y: 1e-150, Z: -1e-150}, 3, 0}, {vec.V3{Z: 1e-170}, 1, 0}},
		"huge":               {{vec.V3{X: 1e150}, 1, 0.0025}, {vec.V3{X: 1e150, Y: -1e150, Z: 1e150}, 1e300, 0}, {vec.V3{Y: 1e200}, 1, 0}},
		"mass-signs":         {{off(1, 0, 0), -1, 0.0025}, {off(0, 1, 0), 0, 0.0025}, {off(0, 0, 1), math.Copysign(0, -1), 0.0025}, {off(1, 1, 0), -1e300, 0}},
		"non-finite-inputs":  {{vec.V3{X: math.Inf(1)}, 1, 0.0025}, {off(1, 0, 0), math.NaN(), 0.0025}, {off(1, 0, 0), 1, 0.0025}},
	}
	for name, stream := range streams {
		t.Run(name, func(t *testing.T) {
			p := pos
			if name == "subnormal" || name == "tiny" || name == "huge" {
				p = vec.V3{} // separations this small or large vanish next to a finite offset
			}
			checkPairStream(t, p, stream)
		})
	}
}

// FuzzPairKernel accumulates random interaction streams through
// PairKernel and through InteractAccum — the reference the octree
// oracle, the flat kernels' contract and the direct solver use — and
// demands equal sums, bit for bit, after every interaction. Two raw
// float64 bit patterns from the fuzzer land in a coordinate and a mass.
func FuzzPairKernel(f *testing.F) {
	f.Add(uint64(1), int64(0), int64(0), false)
	f.Add(uint64(2), int64(1), int64(-1), true)
	f.Add(uint64(3), int64(0x7fefffffffffffff), int64(0x0010000000000000), true)
	f.Add(uint64(4), int64(math.Float64bits(1e-150)), int64(math.Float64bits(-2.5)), false)
	f.Fuzz(func(t *testing.T, seed uint64, rawCoord, rawMass int64, epsZero bool) {
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		epsSq := 0.0025
		if epsZero {
			epsSq = 0
		}
		pos := vec.V3{X: r.Range(-8, 8), Y: r.Range(-8, 8), Z: r.Range(-8, 8)}
		stream := make([]pairCase, 64)
		for i := range stream {
			stream[i] = pairCase{
				at:    vec.V3{X: r.Range(-8, 8), Y: r.Range(-8, 8), Z: r.Range(-8, 8)},
				m:     r.Range(0.1, 2),
				epsSq: epsSq,
			}
		}
		stream[7].at.X = math.Float64frombits(uint64(rawCoord))
		stream[19].m = math.Float64frombits(uint64(rawMass))
		stream[31].at = pos // coincident: finite when softened, NaN/Inf parity otherwise
		stream[43].at.Z, stream[43].m = math.Float64frombits(uint64(rawCoord)), math.Float64frombits(uint64(rawMass))
		checkPairStream(t, pos, stream)
	})
}
