package core

import (
	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// force is the simulator's force phase: the pointer walk of the
// optimization level. forceNaive, forceCached and forceAsync are the
// paper's three ways of paying for (or hiding) remote access.
func (s *simEngine) force(t *upc.Thread, measured bool) {
	st := s.ts[t.ID()]
	switch {
	case s.o.Level >= LevelAsync:
		s.forceAsync(t, st, measured)
	case s.o.Level >= LevelCacheTree:
		s.forceCached(t, st, measured)
	default:
		s.forceNaive(t, st, measured)
	}
}

// writeForce stores the computed acceleration, potential and new cost
// back into the body (remote put below LevelRedistribute).
func (s *simEngine) writeForce(t *upc.Thread, st *simThread, br upc.Ref, acc vec.V3, phi float64, inter int) {
	if measuredLocal := s.o.Level >= LevelRedistribute && s.bodies.IsLocal(t, br); measuredLocal {
		b := s.bodies.Local(t, br)
		b.Acc, b.Phi, b.Cost = acc, phi, float64(inter)
		return
	}
	s.bodies.PutBytes(t, br, bytesBodyAcc, func(b *nbody.Body) {
		b.Acc, b.Phi, b.Cost = acc, phi, float64(inter)
	})
}

// forceNaive is the shared-memory-style force computation (L0-L2,
// simulate only): every tree node is accessed through pointers-to-shared,
// field by field, and — at LevelBaseline — tol and eps are read from
// thread 0's shared scalars at every acceptance test and interaction.
func (s *simEngine) forceNaive(t *upc.Thread, st *simThread, measured bool) {
	rootNR := s.readRoot(t, st)
	stack := st.nodeStack
	for _, br := range st.myBodies {
		pos := s.bodyPos(t, st, br)
		var acc vec.V3
		var phi float64
		inter := 0

		stack = append(stack[:0], rootNR)
		for len(stack) > 0 {
			nr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var d vec.V3 // node - body, shared by the opening test and the interaction
			var d2, mass float64
			if nr.IsBody() {
				if nr.Ref() == br {
					continue // skip self
				}
				var ob *nbody.Body
				if st.bodyCache != nil {
					cv := st.bodyCache.GetBytes(nr.Ref(), bytesBodyMass)
					ob = &cv
				} else {
					ob = s.bodies.ReadView(t, nr.Ref(), bytesBodyMass)
				}
				d, mass = ob.Pos.Sub(pos), ob.Mass
				d2 = d.Len2()
			} else {
				var cell *Cell
				if st.cellCache != nil {
					// Runtime cache: the whole element is the cache line, so
					// one (possibly hit) access serves geometry, aggregates
					// and the child pointers alike.
					cv := st.cellCache.GetBytes(nr.Ref(), cellBytes)
					cell = &cv
				} else {
					cell = s.cells.ReadView(t, nr.Ref(), bytesCellAccept)
				}
				tol := s.readTol(t, st)
				d, mass = cell.CofM.Sub(pos), cell.Mass
				d2 = d.Len2()
				if !octree.AcceptDist2(d2, cell.Half, tol) {
					if st.cellCache == nil {
						// Opening the cell: fetch the child pointers too.
						cell = s.cells.ReadView(t, nr.Ref(), cellBytes)
					}
					for oct := range cell.Sub {
						if slot := cell.Sub[oct]; !slot.IsNil() {
							stack = append(stack, slot)
						}
					}
					continue
				}
			}
			eps := s.readEps(t, st)
			sc, mr := nbody.PairKernel(d2, mass, eps*eps)
			acc = acc.AddScaled(d, sc)
			phi -= mr
			inter++
			t.Charge(s.par.InteractionCost)
		}

		s.writeForce(t, st, br, acc, phi, inter)
		if measured {
			st.inter += uint64(inter)
		}
	}
	st.nodeStack = stack[:0]
}

// lnode is a node of the per-thread cached local tree (§5.3): either a
// cached copy of a remote cell, an alias of a local cell (§5.3.2), or a
// cached body leaf. The local tree is one []lnode per thread, reused
// every step, whose nodes name each other by index: a localized cell's
// children are the nk nodes from kids on, in octant order, and the child
// slots to fetch are read from the global cell (ref) when its children
// are fetched. Both are sound because cells, and bodies' Pos/Mass, are
// read-only between the tree barrier and the force barrier, so no
// coherence protocol is needed. It holds no pointer, so the collector
// never scans it.
type lnode struct {
	cofm vec.V3
	mass float64
	half float64
	ref  upc.Ref // the body's ref for a leaf (self-skip), the global cell's for a cell
	kids int32   // index of the first child, once localized
	nk   uint8   // number of children, once localized

	isBody    bool
	localized bool
	requested bool // async framework: children already on a request list
}

// addCell appends a copy of the global cell c at r to the local tree.
func (st *simThread) addCell(r upc.Ref, c *Cell) {
	st.lnodes = append(st.lnodes, lnode{cofm: c.CofM, mass: c.Mass, half: c.Half, ref: r})
}

// addBody appends a leaf for the body b at r to the local tree.
func (st *simThread) addBody(r upc.Ref, b *nbody.Body) {
	st.lnodes = append(st.lnodes, lnode{cofm: b.Pos, mass: b.Mass, ref: r, isBody: true})
}

// linkKids records that the local-tree nodes from kids to the end are
// node i's children, and marks it localized.
func (st *simThread) linkKids(i, kids int32) {
	n := &st.lnodes[i]
	n.kids, n.nk, n.localized = kids, uint8(int32(len(st.lnodes))-kids), true
}

// fetchLocalRoot starts a fresh local tree (node 0) with a copy of the
// global root.
func (s *simEngine) fetchLocalRoot(t *upc.Thread, st *simThread) {
	r := s.readRoot(t, st).Ref()
	st.lnodes = st.lnodes[:0]
	st.addCell(r, s.cells.ReadView(t, r, cellBytes))
}

// localizeChildren implements Listing 1/Listing 2: fetch every child of
// node i into the local tree (one blocking get per child, as the paper's
// first caching scheme does) and mark it localized. With AliasLocalCells
// (§5.3.2) children that already live in this thread's shared memory are
// aliased through "shadow pointers" instead of being copied.
func (s *simEngine) localizeChildren(t *upc.Thread, st *simThread, i int32) {
	kids := int32(len(st.lnodes))
	for _, slot := range &s.cells.Raw(st.lnodes[i].ref).Sub {
		if slot.IsNil() {
			continue
		}
		r := slot.Ref()
		if slot.IsBody() {
			st.addBody(r, s.bodies.ReadView(t, r, bytesBodyMass))
			continue
		}
		if s.o.AliasLocalCells && s.cells.IsLocal(t, r) {
			s.cells.Touch(t, r, bytesSlot) // shadow-pointer setup: a local deref
			st.addCell(r, s.cells.Raw(r))
			st.cellsAliased++
			continue
		}
		// Whole-cell transfer (remote) or local copy; same charge as Get.
		c := s.cells.ReadView(t, r, cellBytes)
		t.Charge(s.par.CellInitCost + float64(cellBytes)*s.par.ByteCopyCost)
		st.addCell(r, c)
		st.cellsCopied++
	}
	st.linkKids(i, kids)
}

// forceCached is the §5.3 force computation (simulate only): walk the
// private local tree, localizing cells on demand with blocking gets.
func (s *simEngine) forceCached(t *upc.Thread, st *simThread, measured bool) {
	s.fetchLocalRoot(t, st)
	eps := s.readEps(t, st)
	tol := s.readTol(t, st)
	epsSq := eps * eps

	stack := st.lnodeStack
	for _, br := range st.myBodies {
		pos := s.bodyPos(t, st, br)
		var acc vec.V3
		var phi float64
		inter := 0

		stack = append(stack[:0], 0)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := &st.lnodes[i]
			d := n.cofm.Sub(pos) // shared by the opening test and the interaction
			d2 := d.Len2()
			if n.isBody {
				if n.ref == br {
					continue
				}
			} else if !octree.AcceptDist2(d2, n.half, tol) {
				if !n.localized {
					s.localizeChildren(t, st, i)
					n = &st.lnodes[i]
				}
				for k := n.kids + int32(n.nk) - 1; k >= n.kids; k-- {
					stack = append(stack, k)
				}
				continue
			}
			sc, mr := nbody.PairKernel(d2, n.mass, epsSq)
			acc = acc.AddScaled(d, sc)
			phi -= mr
			inter++
			t.Charge(s.par.InteractionCost)
		}

		s.writeForce(t, st, br, acc, phi, inter)
		if measured {
			st.inter += uint64(inter)
		}
	}
	st.lnodeStack = stack[:0]
}
