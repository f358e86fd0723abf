package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasicAlgebra(t *testing.T) {
	a := V3{1, 2, 3}
	b := V3{4, -5, 6}
	if got := a.Add(b); got != (V3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (V3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (V3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.AddScaled(b, 2); got != (V3{9, -8, 15}) {
		t.Errorf("AddScaled = %v", got)
	}
	if got := (V3{3, 4, 0}).Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	a := V3{1, 5, -2}
	b := V3{3, -5, 0}
	if got := a.Min(b); got != (V3{1, -5, -2}) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != (V3{3, 5, 0}) {
		t.Errorf("Max = %v", got)
	}
	if got := a.MaxComponent(); got != 5 {
		t.Errorf("MaxComponent = %v", got)
	}
}

// Property: vector addition commutes and Sub inverts Add.
func TestQuickAddProperties(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3{ax, ay, az}
		b := V3{bx, by, bz}
		if a.Add(b) != b.Add(a) {
			return false
		}
		back := a.Add(b).Sub(b)
		return back.Sub(a).Len() <= 1e-9*(1+a.Len()+b.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy-Schwarz |a.b| <= |a||b| and Dist symmetry.
func TestQuickDotDist(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		// Constrain to a sane range to avoid overflow-driven false alarms.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e6)
		}
		a := V3{clamp(ax), clamp(ay), clamp(az)}
		b := V3{clamp(bx), clamp(by), clamp(bz)}
		if math.Abs(a.Dot(b)) > a.Len()*b.Len()*(1+1e-12) {
			return false
		}
		return a.Dist2(b) == b.Dist2(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
