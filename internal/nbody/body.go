// Package nbody provides the physics substrate of the Barnes-Hut
// reproduction: the body type, the Plummer-model initial-condition
// generator used by SPLASH2, the softened gravity kernel, leapfrog
// integration, the O(n^2) direct-summation reference and energy
// diagnostics.
package nbody

import (
	"math"

	"upcbh/internal/vec"
)

// Body is one simulated particle. Cost is the load-balancing weight
// (number of interactions computed for this body in the previous
// time-step), as used by the SPLASH2 costzones partitioner and by the
// paper's subspace tree builder.
//
// The field order is load-bearing: the PGAS emulation's fine-grained
// remote reads copy a byte *prefix* of the struct (exactly the bytes
// the message is charged for), so the fields other threads read while
// the owner updates force results must come first:
//
//	[0,24)   Pos   — read during tree build and force computation
//	[24,32)  Mass  — read during force computation
//	[32,40)  Cost  — read during c-of-m / partitioning (never while written)
//	[40,48)  ID
//	[48,..)  Vel, Acc, Phi — owner-private within a phase
type Body struct {
	Pos  vec.V3
	Mass float64
	Cost float64
	ID   int32
	_    int32 // padding; keeps Vel 8-byte aligned explicitly
	Vel  vec.V3
	Acc  vec.V3
	Phi  float64 // gravitational potential at the body (diagnostic)
}

// Interact accumulates the softened gravitational pull of a point mass
// (at `at`, with mass m) on a body at pos, returning the acceleration
// increment and potential increment. This single kernel is shared by the
// direct solver, the sequential octree, and every distributed variant so
// that all of them agree bit-for-bit per interaction.
//
// The body is written component-wise rather than through the vec.V3
// helpers: the float operations (and therefore the results) are
// identical, but the scalar form fits the compiler's inlining budget —
// and this function runs once per modelled interaction, hundreds of
// millions of times per experiment suite.
func Interact(pos, at vec.V3, m, epsSq float64) (dacc vec.V3, dphi float64) {
	var acc vec.V3
	var phi float64
	InteractAccum(&acc, &phi, pos, at, m, epsSq)
	return acc, phi
}

// InteractAccum is Interact fused with the accumulation the callers all
// perform (acc = acc.Add(dacc); phi += dphi): the float operations are
// bit-identical, but the fused scalar form avoids the struct return and
// the separate vector adds, which matters because this runs once per
// modelled interaction — hundreds of millions of times per experiment
// suite.
func InteractAccum(acc *vec.V3, phi *float64, pos, at vec.V3, m, epsSq float64) {
	dx := at.X - pos.X
	dy := at.Y - pos.Y
	dz := at.Z - pos.Z
	r2 := dx*dx + dy*dy + dz*dz + epsSq
	r := math.Sqrt(r2)
	inv := 1 / r
	s := m * inv * inv * inv
	acc.X += dx * s
	acc.Y += dy * s
	acc.Z += dz * s
	*phi += -m * inv
}

// PairKernel is the part of InteractAccum that does not depend on the
// direction: given the squared distance d2 = dx*dx + dy*dy + dz*dz it
// returns s = m/r^3 and mr = m/r for the softened r^2 = d2 + epsSq. A
// caller that keeps its sums in locals and applies
//
//	ax += dx * s; ay += dy * s; az += dz * s; phi -= mr
//
// performs InteractAccum's float operations, in its order, on the same
// values (FuzzPairKernel holds the two equal bit for bit; phi - m*inv is
// phi + (-m)*inv). It exists because it fits the compiler's inlining
// budget where InteractAccum does not (CI greps the build for its "can
// inline" line): the charged pointer walks of internal/core run it once
// per modelled interaction and, with it inlined, keep a body's
// accumulators in registers instead of loading, adding and storing each
// component through a pointer.
func PairKernel(d2, m, epsSq float64) (s, mr float64) {
	r2 := d2 + epsSq
	r := math.Sqrt(r2)
	inv := 1 / r
	return m * inv * inv * inv, m * inv
}

// AdvanceKickDrift applies one full leapfrog step given freshly computed
// accelerations: kick the velocity by dt then drift the position by dt,
// matching the SPLASH2 advancebody sequence.
func AdvanceKickDrift(b *Body, dt float64) {
	b.Vel = b.Vel.AddScaled(b.Acc, dt)
	b.Pos = b.Pos.AddScaled(b.Vel, dt)
}

// BoundingBox returns the component-wise min and max position over
// bodies. It panics on an empty slice.
func BoundingBox(bodies []Body) (lo, hi vec.V3) {
	if len(bodies) == 0 {
		panic("nbody: bounding box of no bodies")
	}
	lo, hi = bodies[0].Pos, bodies[0].Pos
	for i := 1; i < len(bodies); i++ {
		lo = lo.Min(bodies[i].Pos)
		hi = hi.Max(bodies[i].Pos)
	}
	return lo, hi
}

// RootCell converts a bounding box into the side length and center of the
// Barnes-Hut root cell: the smallest power-of-two-friendly cube
// containing all bodies, expanded exactly as SPLASH2's setbound does
// (side doubled until it covers the box).
func RootCell(lo, hi vec.V3) (center vec.V3, half float64) {
	center = lo.Add(hi).Scale(0.5)
	side := hi.Sub(lo).MaxComponent()
	rsize := 1.0
	for rsize < side*1.00002 {
		rsize *= 2
	}
	return center, rsize / 2
}
