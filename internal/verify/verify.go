// Package verify is the physics oracle of the repository: it checks the
// *output* of any Barnes-Hut run — at every optimization level, under
// either execution backend, on any workload scenario — against ground
// truth that is computed independently of all the machinery under test.
//
// Two oracles are provided:
//
//   - Force oracle: O(n^2) direct summation (nbody.Direct) at the exact
//     positions of the run's last force evaluation, reconstructed from
//     the final state by undoing the last leapfrog drift. The only
//     discrepancy a correct run may show is the Barnes-Hut multipole
//     approximation error, which is bounded by the opening criterion
//     theta — so a tolerance keyed to theta catches real defects
//     (wrong masses, missed subtrees, double-counted bodies) without
//     flagging the approximation the algorithm is allowed to make.
//
//   - Conservation oracle: energy and momentum drift between the
//     initial conditions and the final state of a multi-step run. The
//     kick-drift leapfrog is symplectic, so energy error stays bounded
//     and small over the short runs used in tests; momentum is exactly
//     conserved by Newton's third law up to the (theta-bounded)
//     asymmetry of the tree approximation.
//
// The differential test matrix in this package runs every Level x
// ExecMode x scenario combination that exists (native starts at
// LevelCacheTree) through the memoized bench.Runner and holds each run
// to both oracles, plus pairwise agreement across levels and modes.
package verify

import (
	"fmt"
	"math"

	"upcbh/internal/nbody"
	"upcbh/internal/vec"
)

// ReconstructForcePositions returns the positions at which the run's
// final accelerations were computed. The advance phase applies
// kick-drift (Vel += Acc*dt; Pos += Vel*dt), so the force-evaluation
// position of each body is Pos - Vel*dt with the *final* velocity.
func ReconstructForcePositions(final []nbody.Body, dt float64) []nbody.Body {
	at := make([]nbody.Body, len(final))
	copy(at, final)
	for i := range at {
		at[i].Pos = at[i].Pos.AddScaled(at[i].Vel, -dt)
	}
	return at
}

// ForceErrors compares the accelerations stored in a run's final body
// state against direct summation at the reconstructed force-evaluation
// positions, in one O(n^2) oracle pass, under two metrics:
//
//   - maxRel, the worst per-body relative error |a_bh - a_direct| /
//     |a_direct| — dominated by bodies sitting near force cancellations
//     (small |a_direct|, so large relative error from a small absolute
//     one);
//   - rms, sqrt(sum |a_bh - a_direct|^2 / sum |a_direct|^2) — the
//     whole-field measure and the sharper defect detector: a missed
//     subtree or double-counted body shifts it by orders of magnitude,
//     while the legitimate multipole error stays at the few-percent
//     level for theta <= 1.
func ForceErrors(final []nbody.Body, eps, dt float64) (maxRel, rms float64) {
	ref := ReconstructForcePositions(final, dt)
	nbody.Direct(ref, eps)
	var num, den float64
	for i := range final {
		errSq := final[i].Acc.Sub(ref[i].Acc).Len2()
		refSq := ref[i].Acc.Len2()
		num += errSq
		den += refSq
		if refSq == 0 {
			continue
		}
		if e := math.Sqrt(errSq / refSq); e > maxRel {
			maxRel = e
		}
	}
	if den > 0 {
		rms = math.Sqrt(num / den)
	}
	return maxRel, rms
}

// Conservation reports the drift diagnostics of a run: every field is
// dimensionless and should be ~0 for a correct integrator.
type Conservation struct {
	// EnergyDrift is |E_final - E_initial| / |E_initial| (total energy
	// by O(n^2) direct summation).
	EnergyDrift float64
	// MomentumDrift is |P_final - P_initial| normalized by the initial
	// momentum scale sum_i m_i |v_i| (total momentum is zero in the
	// center-of-mass frame every scenario starts in, so a relative
	// measure needs the scale, not the near-zero total).
	MomentumDrift float64
	// E0, E1 are the initial and final total energies.
	E0, E1 float64
}

// CheckConservation computes drift diagnostics between the initial
// conditions and the final state of a run with softening eps.
func CheckConservation(initial, final []nbody.Body, eps float64) (Conservation, error) {
	if len(initial) != len(final) {
		return Conservation{}, fmt.Errorf("verify: body counts differ: %d initial vs %d final", len(initial), len(final))
	}
	k0, p0 := nbody.Energy(initial, eps)
	k1, p1 := nbody.Energy(final, eps)
	c := Conservation{E0: k0 + p0, E1: k1 + p1}
	if c.E0 != 0 {
		c.EnergyDrift = math.Abs(c.E1-c.E0) / math.Abs(c.E0)
	}
	var mom0, mom1 vec.V3
	var scale float64
	for i := range initial {
		mom0 = mom0.AddScaled(initial[i].Vel, initial[i].Mass)
		mom1 = mom1.AddScaled(final[i].Vel, final[i].Mass)
		scale += initial[i].Mass * initial[i].Vel.Len()
	}
	if scale > 0 {
		c.MomentumDrift = mom1.Sub(mom0).Len() / scale
	}
	return c, nil
}

// MaxAccDivergence returns the worst relative acceleration difference
// between two runs of the same configuration (for pairwise cross-level
// checks): |a_i - b_i| / max(|a_i|, |b_i|). It panics on length or ID
// mismatch — that is already a verification failure.
func MaxAccDivergence(a, b []nbody.Body) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("verify: body counts differ: %d vs %d", len(a), len(b)))
	}
	var worst float64
	for i := range a {
		if a[i].ID != b[i].ID {
			panic(fmt.Sprintf("verify: body order mismatch at %d: ID %d vs %d", i, a[i].ID, b[i].ID))
		}
		denom := math.Max(a[i].Acc.Len(), b[i].Acc.Len())
		if denom == 0 {
			continue
		}
		if e := a[i].Acc.Sub(b[i].Acc).Len() / denom; e > worst {
			worst = e
		}
	}
	return worst
}
