package core

import (
	"fmt"

	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// buildMerged is the §5.4 tree construction (LevelMergedBuild and
// LevelAsync, simulate only; native builds the flat tree directly, see
// flatnative.go): each thread builds a lock-free local octree over its
// own bodies (computing local centers of mass), then merges it into the
// shared global tree. Center-of-mass updates during the merge are
// commutative weighted averages performed under the cell lock, so no
// separate c-of-m phase is needed. The local/merge time split per thread
// is recorded for figure 8.
func (s *Sim) buildMerged(t *upc.Thread, st *tstate, measured bool) {
	g := s.boundingBox(t, st)

	// Sub-phase 1: local tree (sequential, no locks, local pointers).
	t0 := t.Now()
	lroot := s.newCell(t, st, g.Center, g.Half)
	for _, br := range st.myBodies {
		pos := s.bodyPos(t, st, br)
		s.insertLocalTree(t, st, lroot, br, pos)
	}
	s.cofmLocalTree(t, lroot)
	if measured {
		st.treeLocalT += t.Now() - t0
	}

	// Global root, created by thread 0; synchronized by the broadcast.
	var rootRef upc.Ref
	if t.ID() == 0 {
		rootRef = s.newCell(t, st, g.Center, g.Half)
	}
	rootRef = upc.Broadcast(t, 0, rootRef)
	st.root = CellRef(rootRef)

	// Sub-phase 2: merge the local tree into the global tree.
	t1 := t.Now()
	s.mergeCell(t, st, rootRef, lroot, g.Center, g.Half)
	if measured {
		st.treeMergeT += t.Now() - t1
	}
}

// insertLocalTree inserts a (local) body into the thread's private local
// tree. All accesses are through cast local pointers: only computation
// costs are charged.
func (s *Sim) insertLocalTree(t *upc.Thread, st *tstate, root upc.Ref, bodyR upc.Ref, pos vec.V3) {
	cur := root
	for depth := 0; ; depth++ {
		if depth > maxDepth {
			panic("core: local tree depth limit exceeded (coincident bodies?)")
		}
		t.Charge(s.par.TreeLevelCost)
		cp := s.cells.Local(t, cur)
		oct := octree.Octant(cp.Center, pos)
		slot := cp.Sub[oct]
		switch {
		case slot.IsNil():
			cp.Sub[oct] = BodyRef(bodyR)
			return
		case slot.IsCell():
			cur = slot.Ref()
		default: // body: split
			oldR := slot.Ref()
			oldPos := s.bodies.Local(t, oldR).Pos
			cc, ch := octree.ChildBounds(cp.Center, cp.Half, oct)
			top := s.buildChain(t, st, cc, ch, oldR, oldPos, bodyR, pos, nil)
			cp.Sub[oct] = CellRef(top)
			return
		}
	}
}

// cofmLocalTree computes aggregates over the thread's private local tree
// bottom-up (recursive, local pointers only).
func (s *Sim) cofmLocalTree(t *upc.Thread, root upc.Ref) {
	var rec func(r upc.Ref)
	rec = func(r upc.Ref) {
		cp := s.cells.Local(t, r)
		var wsum vec.V3
		var mass, cost float64
		var n int32
		for oct := range cp.Sub {
			slot := cp.Sub[oct]
			switch {
			case slot.IsNil():
				continue
			case slot.IsBody():
				b := s.bodies.Local(t, slot.Ref())
				wsum = wsum.AddScaled(b.Pos, b.Mass)
				mass += b.Mass
				c := b.Cost
				if c <= 0 {
					c = 1
				}
				cost += c
				n++
			default:
				rec(slot.Ref())
				ch := s.cells.Local(t, slot.Ref())
				wsum = wsum.AddScaled(ch.CofM, ch.Mass)
				mass += ch.Mass
				cost += ch.Cost
				n += ch.NSub
			}
			t.Charge(s.par.TreeLevelCost)
		}
		cp.Mass, cp.Cost, cp.NSub = mass, cost, n
		if mass > 0 {
			cp.CofM = wsum.Scale(1 / mass)
		} else {
			cp.CofM = cp.Center
		}
		cp.Done = 1
	}
	rec(root)
}

// addAggregate merges a (mass, cofm, cost, count) contribution into a
// shared cell under its lock — the paper's atomic weighted-average
// center-of-mass update, valid in any merge order.
func (s *Sim) addAggregate(t *upc.Thread, cRef upc.Ref, mass float64, cofm vec.V3, cost float64, n int32) {
	lk := s.locks.ForRef(cRef)
	lk.Acquire(t)
	s.cells.Touch(t, cRef, bytesAgg)
	s.cells.TouchPut(t, cRef, bytesAgg)
	cp := s.cells.Raw(cRef)
	tm := cp.Mass + mass
	if tm > 0 {
		cp.CofM = cp.CofM.Scale(cp.Mass/tm).AddScaled(cofm, mass/tm)
	}
	cp.Mass = tm
	cp.Cost += cost
	cp.NSub += n
	cp.Done = 1
	lk.Release(t)
}

// mergeCell merges the caller's local cell lRef into the global cell
// gRef; both cover the cube (center, half). The caller's aggregate is
// folded into the global cell, then children are reconciled slot by
// slot: empty slots are hooked (one pointer update), matching cells
// recurse, and body/cell conflicts replay the insertion protocol — the
// step-by-step remote operations that make the losing thread of a merge
// conflict slow (§6.1, figure 8).
func (s *Sim) mergeCell(t *upc.Thread, st *tstate, gRef, lRef upc.Ref, center vec.V3, half float64) {
	lp := s.cells.Local(t, lRef)
	s.addAggregate(t, gRef, lp.Mass, lp.CofM, lp.Cost, lp.NSub)
	gp := s.cells.Raw(gRef)
	for oct := range lp.Sub {
		lch := lp.Sub[oct]
		if lch.IsNil() {
			continue
		}
		cc, ch := octree.ChildBounds(center, half, oct)
	slotLoop:
		for {
			t.Charge(s.par.TreeLevelCost)
			s.cells.Touch(t, gRef, bytesSlot)
			slot := gp.Sub[oct]
			switch {
			case slot.IsNil():
				lk := s.locks.ForRef(gRef)
				lk.Acquire(t)
				if gp.Sub[oct].IsNil() {
					// Hook the whole local subtree: one pointer update.
					s.cells.TouchPut(t, gRef, bytesSlot)
					gp.Sub[oct] = lch
					lk.Release(t)
					break slotLoop
				}
				lk.Release(t) // raced; retry

			case slot.IsCell():
				if lch.IsCell() {
					s.mergeCell(t, st, slot.Ref(), lch.Ref(), cc, ch)
					break slotLoop
				}
				// Local child is a body: the global slot was claimed by a
				// cell first. Insert the body step by step, updating
				// aggregates along the path (the loser pays).
				b := s.bodies.Local(t, lch.Ref())
				bc := b.Cost
				if bc <= 0 {
					bc = 1
				}
				s.insertBodyMerge(t, st, slot.Ref(), cc, ch, lch.Ref(), b.Pos, b.Mass, bc)
				break slotLoop

			default: // global slot holds a body
				lk := s.locks.ForRef(gRef)
				lk.Acquire(t)
				if gp.Sub[oct] != slot {
					lk.Release(t)
					continue slotLoop
				}
				oldR := slot.Ref()
				old := s.bodies.ReadView(t, oldR, bytesBodyCost)
				oldCost := old.Cost
				if oldCost <= 0 {
					oldCost = 1
				}
				if lch.IsBody() {
					b := s.bodies.Local(t, lch.Ref())
					bc := b.Cost
					if bc <= 0 {
						bc = 1
					}
					chain := s.buildChain(t, st, cc, ch, oldR, old.Pos, lch.Ref(), b.Pos,
						&chainAgg{oldMass: old.Mass, oldCost: oldCost, newMass: b.Mass, newCost: bc})
					s.cells.TouchPut(t, gRef, bytesSlot)
					gp.Sub[oct] = CellRef(chain)
				} else {
					// Mine is a cell: fold the displaced body into my
					// (still private) subtree, then hook it.
					s.insertBodyLocalAgg(t, st, lch.Ref(), oldR, old.Pos, old.Mass, oldCost)
					s.cells.TouchPut(t, gRef, bytesSlot)
					gp.Sub[oct] = lch
				}
				lk.Release(t)
				break slotLoop
			}
		}
	}
}

// insertBodyMerge inserts a body into a published global subtree during
// the merge, adding its contribution to every cell on the descent path
// and placing it under the usual lock protocol.
func (s *Sim) insertBodyMerge(t *upc.Thread, st *tstate, cur upc.Ref, center vec.V3, half float64,
	bodyR upc.Ref, pos vec.V3, mass, cost float64) {

	aggregated := false // add the contribution exactly once per level
	for depth := 0; ; depth++ {
		if depth > maxDepth {
			panic(fmt.Sprintf("core: merge-insert depth limit exceeded for body %v", bodyR))
		}
		if !aggregated {
			s.addAggregate(t, cur, mass, pos, cost, 1)
			aggregated = true
		}
		t.Charge(s.par.TreeLevelCost)
		cp := s.cells.Raw(cur)
		oct := octree.Octant(center, pos)
		s.cells.Touch(t, cur, bytesSlot)
		slot := cp.Sub[oct]
		switch {
		case slot.IsCell():
			cur = slot.Ref()
			center, half = octree.ChildBounds(center, half, oct)
			aggregated = false

		case slot.IsNil():
			lk := s.locks.ForRef(cur)
			lk.Acquire(t)
			if cp.Sub[oct].IsNil() {
				s.cells.TouchPut(t, cur, bytesSlot)
				cp.Sub[oct] = BodyRef(bodyR)
				lk.Release(t)
				return
			}
			lk.Release(t)

		default:
			lk := s.locks.ForRef(cur)
			lk.Acquire(t)
			if cp.Sub[oct] != slot {
				lk.Release(t)
				continue
			}
			oldR := slot.Ref()
			old := s.bodies.ReadView(t, oldR, bytesBodyCost)
			oldCost := old.Cost
			if oldCost <= 0 {
				oldCost = 1
			}
			cc, ch := octree.ChildBounds(center, half, oct)
			chain := s.buildChain(t, st, cc, ch, oldR, old.Pos, bodyR, pos,
				&chainAgg{oldMass: old.Mass, oldCost: oldCost, newMass: mass, newCost: cost})
			s.cells.TouchPut(t, cur, bytesSlot)
			cp.Sub[oct] = CellRef(chain)
			lk.Release(t)
			return
		}
	}
}

// insertBodyLocalAgg inserts a displaced body into the caller's still
// private subtree, updating aggregates along the path. No locks: the
// subtree is unpublished.
func (s *Sim) insertBodyLocalAgg(t *upc.Thread, st *tstate, root upc.Ref, bodyR upc.Ref, pos vec.V3, mass, cost float64) {
	cur := root
	for depth := 0; ; depth++ {
		if depth > maxDepth {
			panic("core: private merge-insert depth limit exceeded")
		}
		t.Charge(s.par.TreeLevelCost)
		cp := s.cells.Local(t, cur)
		// Fold the contribution in (no lock needed; private).
		tm := cp.Mass + mass
		if tm > 0 {
			cp.CofM = cp.CofM.Scale(cp.Mass/tm).AddScaled(pos, mass/tm)
		}
		cp.Mass = tm
		cp.Cost += cost
		cp.NSub++
		oct := octree.Octant(cp.Center, pos)
		slot := cp.Sub[oct]
		switch {
		case slot.IsNil():
			cp.Sub[oct] = BodyRef(bodyR)
			return
		case slot.IsCell():
			cur = slot.Ref()
		default:
			oldR := slot.Ref()
			old := s.bodies.ReadView(t, oldR, bytesBodyCost)
			oldCost := old.Cost
			if oldCost <= 0 {
				oldCost = 1
			}
			cc, ch := octree.ChildBounds(cp.Center, cp.Half, oct)
			chain := s.buildChain(t, st, cc, ch, oldR, old.Pos, bodyR, pos,
				&chainAgg{oldMass: old.Mass, oldCost: oldCost, newMass: mass, newCost: cost})
			cp.Sub[oct] = CellRef(chain)
			return
		}
	}
}
