package nbody

import (
	"testing"

	"upcbh/internal/vec"
)

// gather fills s from bodies through Resize and Set, the way the flat
// tree's builder fills its body view: slot i holds bodies[i], ID i.
func gather(s *SoA, bodies []Body) {
	s.Resize(len(bodies))
	for i := range bodies {
		s.Set(i, bodies[i].Pos, bodies[i].Mass, bodies[i].Cost, int32(i))
	}
}

func TestSoAGatherRoundTrip(t *testing.T) {
	bodies := Plummer(100, 3)
	var s SoA
	gather(&s, bodies)
	if s.Len() != len(bodies) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(bodies))
	}
	for i := range bodies {
		if s.Pos[i] != bodies[i].Pos || s.Mass[i] != bodies[i].Mass ||
			s.Cost[i] != bodies[i].Cost || s.ID[i] != int32(i) {
			t.Fatalf("slot %d mismatch", i)
		}
	}
	// Re-gathering a same-size set must not allocate (arena reuse).
	if allocs := testing.AllocsPerRun(10, func() { gather(&s, bodies) }); allocs > 0 {
		t.Errorf("steady-state Gather allocated %.1f objects/op, want 0", allocs)
	}
}

// TestSoAResizePreservesOnGrowth pins the incremental-append contract
// the flat-tree converters rely on: growing the view must keep existing
// slots intact.
func TestSoAResizePreservesOnGrowth(t *testing.T) {
	var s SoA
	s.Resize(1)
	s.Set(0, vec.V3{X: 1, Y: 2, Z: 3}, 4, 5, 6)
	for n := 2; n <= 70; n++ {
		s.Resize(n)
		s.Set(n-1, vec.V3{X: float64(n)}, float64(n), 0, int32(n))
	}
	if s.Pos[0] != (vec.V3{X: 1, Y: 2, Z: 3}) || s.Mass[0] != 4 || s.Cost[0] != 5 || s.ID[0] != 6 {
		t.Fatalf("slot 0 lost on growth: pos %v mass %g cost %g id %d", s.Pos[0], s.Mass[0], s.Cost[0], s.ID[0])
	}
	for n := 2; n <= 70; n++ {
		if s.Pos[n-1].X != float64(n) || s.ID[n-1] != int32(n) {
			t.Fatalf("slot %d lost on growth", n-1)
		}
	}
	// Shrink + regrow within capacity keeps the arena.
	s.Resize(5)
	if allocs := testing.AllocsPerRun(10, func() { s.Resize(70); s.Resize(5) }); allocs > 0 {
		t.Errorf("in-capacity Resize allocated %.1f objects/op, want 0", allocs)
	}
}

func TestSoACopySlot(t *testing.T) {
	var a, b SoA
	a.Resize(2)
	a.Set(0, vec.V3{X: 1}, 10, 100, 0)
	a.Set(1, vec.V3{X: 2}, 20, 200, 1)
	b.Resize(1)
	b.CopySlot(0, &a, 0)
	if b.Pos[0].X != 1 || b.Mass[0] != 10 || b.Cost[0] != 100 || b.ID[0] != 0 {
		t.Fatalf("CopySlot did not copy all components: %+v", b)
	}
}
