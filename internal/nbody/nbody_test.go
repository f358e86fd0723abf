package nbody

import (
	"math"
	"testing"
	"testing/quick"

	"upcbh/internal/vec"
)

// finite reports whether all components of v are finite numbers.
func finite(v vec.V3) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

func TestPlummerBasics(t *testing.T) {
	const n = 4096
	bodies := Plummer(n, 1)
	if len(bodies) != n {
		t.Fatalf("got %d bodies", len(bodies))
	}
	var mass float64
	var cpos, cvel vec.V3
	for i := range bodies {
		if !finite(bodies[i].Pos) || !finite(bodies[i].Vel) {
			t.Fatalf("non-finite body %d", i)
		}
		mass += bodies[i].Mass
		cpos = cpos.AddScaled(bodies[i].Pos, bodies[i].Mass)
		cvel = cvel.AddScaled(bodies[i].Vel, bodies[i].Mass)
		if bodies[i].ID != int32(i) {
			t.Fatalf("ID mismatch at %d", i)
		}
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("total mass %v, want 1 (M=1 units)", mass)
	}
	if cpos.Len() > 1e-9 || cvel.Len() > 1e-9 {
		t.Errorf("not in center-of-mass frame: pos %v vel %v", cpos, cvel)
	}
}

func TestPlummerVirial(t *testing.T) {
	// In M=-4E=G=1 units: E=-1/4, and virial equilibrium gives
	// T ~= -E = 1/4, V ~= 2E = -1/2 for the un-softened system.
	bodies := Plummer(8192, 2)
	kin, pot := Energy(bodies, 0)
	e := kin + pot
	if math.Abs(e+0.25) > 0.03 {
		t.Errorf("total energy %v, want ~-0.25", e)
	}
	if math.Abs(kin-0.25) > 0.04 {
		t.Errorf("kinetic %v, want ~0.25", kin)
	}
}

func TestPlummerOddCount(t *testing.T) {
	bodies := Plummer(257, 4)
	if len(bodies) != 257 {
		t.Fatalf("got %d bodies", len(bodies))
	}
	var m float64
	for i := range bodies {
		if !finite(bodies[i].Pos) {
			t.Fatalf("non-finite body %d", i)
		}
		m += bodies[i].Mass
	}
	if math.Abs(m-1) > 1e-9 {
		t.Errorf("total mass %v", m)
	}
}

func TestPlummerDeterministic(t *testing.T) {
	a := Plummer(512, 5)
	b := Plummer(512, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different body %d", i)
		}
	}
}

func TestInteractSoftening(t *testing.T) {
	// Exactly coincident points must not blow up with softening.
	acc, phi := Interact(vec.V3{}, vec.V3{}, 1, 0.05*0.05)
	if !finite(acc) || math.IsInf(phi, 0) || math.IsNaN(phi) {
		t.Error("softened interaction not finite at zero distance")
	}
	// Far field: |acc| ~ m/r^2 toward the source.
	acc, phi = Interact(vec.V3{}, vec.V3{X: 10}, 2, 0)
	if math.Abs(acc.X-2.0/100) > 1e-12 || acc.Y != 0 || acc.Z != 0 {
		t.Errorf("far-field acceleration wrong: %v", acc)
	}
	if math.Abs(phi+0.2) > 1e-12 {
		t.Errorf("far-field potential wrong: %v", phi)
	}
}

// Property: gravity is attractive and Newton's third law holds per pair.
func TestQuickInteractSymmetry(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		mod := func(v float64) float64 { return math.Mod(v, 100) }
		a := vec.V3{X: mod(ax), Y: mod(ay), Z: mod(az)}
		b := vec.V3{X: mod(bx) + 1, Y: mod(by), Z: mod(bz)} // avoid exact overlap
		if a.Sub(b).Len() < 1e-6 {
			return true
		}
		fab, _ := Interact(a, b, 3, 0.01)
		fba, _ := Interact(b, a, 3, 0.01)
		// Equal masses: forces equal and opposite.
		return fab.Add(fba).Len() <= 1e-9*(1+fab.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundingBoxAndRootCell(t *testing.T) {
	bodies := []Body{
		{Pos: vec.V3{X: -1, Y: 2, Z: 0}},
		{Pos: vec.V3{X: 3, Y: -4, Z: 5}},
	}
	lo, hi := BoundingBox(bodies)
	if lo != (vec.V3{X: -1, Y: -4, Z: 0}) || hi != (vec.V3{X: 3, Y: 2, Z: 5}) {
		t.Fatalf("bbox = %v %v", lo, hi)
	}
	center, half := RootCell(lo, hi)
	for _, b := range bodies {
		d := b.Pos.Sub(center)
		if math.Abs(d.X) > half || math.Abs(d.Y) > half || math.Abs(d.Z) > half {
			t.Errorf("body %v outside root cell (center %v half %v)", b.Pos, center, half)
		}
	}
	// Root side is a power of two (SPLASH2 setbound behaviour).
	side := 2 * half
	if math.Abs(math.Log2(side)-math.Round(math.Log2(side))) > 1e-9 {
		t.Errorf("root side %v not a power of two", side)
	}
}

func TestDirectEnergyConservesUnderLeapfrog(t *testing.T) {
	bodies := Plummer(256, 3)
	const eps, dt = 0.05, 0.0125
	k0, p0 := Energy(bodies, eps)
	e0 := k0 + p0
	for step := 0; step < 20; step++ {
		Direct(bodies, eps)
		for i := range bodies {
			AdvanceKickDrift(&bodies[i], dt)
		}
	}
	k1, p1 := Energy(bodies, eps)
	drift := math.Abs((k1 + p1 - e0) / e0)
	if drift > 0.02 {
		t.Errorf("energy drift %.4f over 20 steps, want < 2%%", drift)
	}
}

func TestTwoPlummerApproach(t *testing.T) {
	ic := TwoPlummer(1024, 9, vec.V3{X: 4}, vec.V3{X: 1})
	if len(ic) != 1024 {
		t.Fatalf("got %d bodies", len(ic))
	}
	// Closing velocity: d|separation|/dt < 0 at t=0.
	var a, b, va, vb vec.V3
	var ma, mb float64
	for i := range ic {
		if i < 512 {
			a = a.AddScaled(ic[i].Pos, ic[i].Mass)
			va = va.AddScaled(ic[i].Vel, ic[i].Mass)
			ma += ic[i].Mass
		} else {
			b = b.AddScaled(ic[i].Pos, ic[i].Mass)
			vb = vb.AddScaled(ic[i].Vel, ic[i].Mass)
			mb += ic[i].Mass
		}
	}
	sep := a.Scale(1 / ma).Sub(b.Scale(1 / mb))
	relV := va.Scale(1 / ma).Sub(vb.Scale(1 / mb))
	if sep.Dot(relV) >= 0 {
		t.Errorf("clusters not approaching: sep %v relV %v", sep, relV)
	}
}

func TestMaxAccError(t *testing.T) {
	a := Plummer(64, 4)
	b := append([]Body(nil), a...)
	Direct(a, 0.05)
	Direct(b, 0.05)
	if e := MaxAccError(a, b); e != 0 {
		t.Errorf("identical runs differ: %v", e)
	}
	b[3].Acc = b[3].Acc.Scale(1.5)
	if e := MaxAccError(a, b); e < 0.2 {
		t.Errorf("perturbation not detected: %v", e)
	}
}
