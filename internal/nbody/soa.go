package nbody

import (
	"upcbh/internal/arena"
	"upcbh/internal/vec"
)

// SoA is a structure-of-arrays view of a body set: the hot read-only
// inputs of tree construction and force computation (position, mass,
// load-balancing cost) split into parallel slices so the inner loops
// stream over contiguous memory instead of striding through 104-byte
// Body records. ID maps each SoA slot back to the body it was gathered
// from, so results computed against the view can be scattered to the
// original array-of-structs layout.
//
// The zero value is ready to use; Gather reuses the backing arrays, so a
// long-lived SoA reaches a steady state with no per-step allocations.
type SoA struct {
	Pos  []vec.V3
	Mass []float64
	Cost []float64
	ID   []int32

	// mem, when set via SetArena, backs all growth: the component
	// arrays live in off-heap (GC-invisible) mmap memory. All element
	// types are pointer-free, so the collector never needs to see them.
	mem *arena.Arena
}

// Len returns the number of bodies in the view.
func (s *SoA) Len() int { return len(s.Pos) }

// SetArena directs all future growth of the view onto a: existing
// contents are preserved (they migrate on the next growing Resize). A
// nil arena reverts to Go-heap growth.
func (s *SoA) SetArena(a *arena.Arena) { s.mem = a }

// Resize sets the view's length to n, reusing capacity when possible and
// preserving existing slots on growth. Newly exposed slots are
// uninitialized (the caller fills every one).
func (s *SoA) Resize(n int) {
	if cap(s.Pos) < n {
		c := 2 * cap(s.Pos)
		if c < n {
			c = n
		}
		pos := arena.MakeSlice[vec.V3](s.mem, n, c)
		mass := arena.MakeSlice[float64](s.mem, n, c)
		cost := arena.MakeSlice[float64](s.mem, n, c)
		id := arena.MakeSlice[int32](s.mem, n, c)
		copy(pos, s.Pos)
		copy(mass, s.Mass)
		copy(cost, s.Cost)
		copy(id, s.ID)
		s.Pos, s.Mass, s.Cost, s.ID = pos, mass, cost, id
		return
	}
	s.Pos = s.Pos[:n]
	s.Mass = s.Mass[:n]
	s.Cost = s.Cost[:n]
	s.ID = s.ID[:n]
}

// Set fills one slot.
func (s *SoA) Set(i int, pos vec.V3, mass, cost float64, id int32) {
	s.Pos[i] = pos
	s.Mass[i] = mass
	s.Cost[i] = cost
	s.ID[i] = id
}

// CopySlot copies slot j of src into slot i of s.
func (s *SoA) CopySlot(i int, src *SoA, j int) {
	s.Pos[i] = src.Pos[j]
	s.Mass[i] = src.Mass[j]
	s.Cost[i] = src.Cost[j]
	s.ID[i] = src.ID[j]
}
