package verify_test

import (
	"testing"

	"upcbh/internal/nbody"
	"upcbh/internal/verify"
)

// advanceDirect produces a "final state" by one exact direct-sum force
// evaluation followed by the same kick-drift the simulator applies —
// the ground-truth fixture the oracles must score as (near-)perfect.
func advanceDirect(bodies []nbody.Body, eps, dt float64) []nbody.Body {
	out := make([]nbody.Body, len(bodies))
	copy(out, bodies)
	nbody.Direct(out, eps)
	for i := range out {
		nbody.AdvanceKickDrift(&out[i], dt)
	}
	return out
}

// TestForceOracleOnExactState: a state advanced with exact direct-sum
// forces must reconstruct and score ~zero error — this pins the drift
// reconstruction (Pos - Vel*dt) against the integrator's actual update
// order. If advance ever changes its kick/drift sequence, this fails
// before the differential matrix starts blaming innocent levels.
func TestForceOracleOnExactState(t *testing.T) {
	const eps, dt = 0.05, 0.025
	final := advanceDirect(nbody.Plummer(256, 5), eps, dt)
	maxRel, rms := verify.ForceErrors(final, eps, dt)
	if maxRel > 1e-12 {
		t.Errorf("exact state scored max error %g, want ~0", maxRel)
	}
	if rms > 1e-12 {
		t.Errorf("exact state scored RMS error %g, want ~0", rms)
	}
}

// TestForceOracleDetectsDefects plants the classic Barnes-Hut bugs in
// an otherwise exact state and requires the oracle to flag each one
// well above the differential matrix's tolerances.
func TestForceOracleDetectsDefects(t *testing.T) {
	const eps, dt = 0.05, 0.025
	clean := advanceDirect(nbody.Plummer(256, 5), eps, dt)
	defects := map[string]func([]nbody.Body){
		// A subtree's contribution lost for one body.
		"missing contribution": func(bs []nbody.Body) { bs[17].Acc = bs[17].Acc.Scale(0.5) },
		// A body double-counted (acceleration doubled).
		"double count": func(bs []nbody.Body) { bs[40].Acc = bs[40].Acc.Scale(2) },
		// Stale cache: one body's force computed at a garbage position.
		"stale position": func(bs []nbody.Body) { bs[3].Acc.X += 1 },
	}
	for name, plant := range defects {
		bs := make([]nbody.Body, len(clean))
		copy(bs, clean)
		plant(bs)
		if e, _ := verify.ForceErrors(bs, eps, dt); e < 0.2 {
			t.Errorf("%s: oracle scored only %g; defect would pass the matrix", name, e)
		}
	}
}

// TestConservationDetectsDrift: feeding back the initial state scores
// zero; scaling every velocity (a lost kick / double kick) must move
// both energy and momentum-scale diagnostics.
func TestConservationDetectsDrift(t *testing.T) {
	initial := nbody.Plummer(512, 9)
	c, err := verify.CheckConservation(initial, initial, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if c.EnergyDrift != 0 || c.MomentumDrift != 0 {
		t.Errorf("identical states drifted: %+v", c)
	}

	kicked := make([]nbody.Body, len(initial))
	copy(kicked, initial)
	for i := range kicked {
		kicked[i].Vel = kicked[i].Vel.Scale(1.5)
		kicked[i].Vel.X += 0.2 // net momentum injection
	}
	c, err = verify.CheckConservation(initial, kicked, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if c.EnergyDrift < 0.1 {
		t.Errorf("kinetic-energy injection scored drift %g", c.EnergyDrift)
	}
	if c.MomentumDrift < 0.1 {
		t.Errorf("momentum injection scored drift %g", c.MomentumDrift)
	}

	if _, err := verify.CheckConservation(initial, initial[:100], 0.05); err == nil {
		t.Error("length mismatch not reported")
	}
}
