package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/1000 identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	r := New(7)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestGaussMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Gauss()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("gauss mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("gauss variance = %v, want ~1", variance)
	}
}

func TestUnitSphere(t *testing.T) {
	r := New(3)
	var cx, cy, cz float64
	const n = 100000
	for i := 0; i < n; i++ {
		x, y, z := r.UnitSphere()
		if d := math.Abs(x*x + y*y + z*z - 1); d > 1e-12 {
			t.Fatalf("point off unit sphere by %v", d)
		}
		cx += x
		cy += y
		cz += z
	}
	// Centroid of uniform sphere points tends to zero.
	if m := math.Sqrt(cx*cx+cy*cy+cz*cz) / n; m > 0.01 {
		t.Errorf("sphere centroid magnitude %v, want ~0", m)
	}
}

func TestRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Range(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

// Property: Range output respects arbitrary valid bounds.
func TestQuickRange(t *testing.T) {
	r := New(9)
	f := func(lo, width float64) bool {
		lo = math.Mod(lo, 1e9)
		width = math.Abs(math.Mod(width, 1e9)) + 1e-9
		v := r.Range(lo, lo+width)
		return v >= lo && v < lo+width
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
