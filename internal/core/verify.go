package core

import (
	"fmt"
	"math"

	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// verifyTree walks the fully built global octree (uncharged Raw access)
// and checks the structural invariants every phase downstream relies on:
//
//   - every body appears exactly once (duplicate ownership corrupts
//     costzones' exact prefix arithmetic — see the cost invariant below);
//   - cell.Cost is EXACTLY the integer sum of body costs beneath it
//     (costzones' cross-thread claim disjointness depends on pruned and
//     descended walks computing bit-identical prefixes, which holds
//     because costs are integer-valued and float64 sums of integers are
//     exact);
//   - masses and body counts are additive; bodies lie inside their cells.
//
// It runs on thread 0 when Options.Verify is set, after tree
// construction, and panics with a descriptive message on violation.
func (s *simEngine) verifyTree(t *upc.Thread, st *simThread) {
	root := s.readRoot(t, st)
	if !root.IsCell() {
		panic("core verify: root is not a cell")
	}
	seen := make(map[int32]bool, s.o.Bodies)

	var walk func(nr NodeRef, hasGeom bool, center vec.V3, half float64) (mass, cost float64, n int32)
	walk = func(nr NodeRef, hasGeom bool, center vec.V3, half float64) (float64, float64, int32) {
		if nr.IsBody() {
			b := s.bodies.Raw(nr.Ref())
			if seen[b.ID] {
				panic(fmt.Sprintf("core verify: body %d appears twice in the tree", b.ID))
			}
			seen[b.ID] = true
			if hasGeom && !octree.Contains(center, half, b.Pos) {
				panic(fmt.Sprintf("core verify: body %d at %+v outside its cell (%+v, %g)", b.ID, b.Pos, center, half))
			}
			c := b.Cost
			if c <= 0 {
				c = 1
			}
			return b.Mass, c, 1
		}
		cp := s.cells.Raw(nr.Ref())
		var mass, cost float64
		var n int32
		for oct := range cp.Sub {
			slot := cp.Sub[oct]
			if slot.IsNil() {
				continue
			}
			cc, ch := octree.ChildBounds(cp.Center, cp.Half, oct)
			m, c, k := walk(slot, true, cc, ch)
			mass += m
			cost += c
			n += k
		}
		if cp.Cost != cost {
			panic(fmt.Sprintf("core verify: cell %v cost %v != exact body-cost sum %v (level %v)",
				nr.Ref(), cp.Cost, cost, s.o.Level))
		}
		if cp.NSub != n {
			panic(fmt.Sprintf("core verify: cell %v NSub %d != body count %d", nr.Ref(), cp.NSub, n))
		}
		if mass > 0 && math.Abs(cp.Mass-mass) > 1e-9*mass {
			panic(fmt.Sprintf("core verify: cell %v mass %v != sum %v", nr.Ref(), cp.Mass, mass))
		}
		return mass, cost, n
	}
	_, _, n := walk(root, false, vec.V3{}, 0)
	if int(n) != s.o.Bodies {
		panic(fmt.Sprintf("core verify: tree holds %d bodies, want %d", n, s.o.Bodies))
	}
}
