package core

import (
	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// force dispatches the force-computation phase: the flat-tree kernel
// under the native backend, and under simulate the pointer walk of the
// optimization level — forceNaive, forceCached and forceAsync are the
// paper's three ways of paying for (or hiding) remote access, which only
// the simulator has.
func (s *Sim) force(t *upc.Thread, st *tstate, measured bool) {
	switch {
	case s.flat != nil:
		s.forceFlat(t, st, measured)
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
func (s *Sim) writeForce(t *upc.Thread, st *tstate, br upc.Ref, acc vec.V3, phi float64, inter int) {
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
func (s *Sim) forceNaive(t *upc.Thread, st *tstate, measured bool) {
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
// cached body leaf. The local tree is rebuilt every time-step (cells are
// read-only within a force phase, so no coherence protocol is needed).
type lnode struct {
	isBody  bool
	bodyRef upc.Ref // leaf identity, for self-skip

	half float64
	cofm vec.V3
	mass float64

	sub       [8]NodeRef // original global children (for fetching)
	child     [8]*lnode
	localized bool
	requested bool // async framework: children already on a request list
}

// lnodeArena is a per-thread slab allocator for the local tree: lnodes
// are rebuilt every time-step, so individually heap-allocating thousands
// of them per step dominated the harness's GC load. Blocks are fixed
// size (pointer stability: lnodes link to each other) and reused across
// steps; reset drops all nodes without freeing.
type lnodeArena struct {
	blocks [][]lnode
	nb     int // current block
	used   int // used entries in the current block
}

const lnodeBlockSize = 1024

func (a *lnodeArena) reset() { a.nb, a.used = 0, 0 }

func (a *lnodeArena) alloc() *lnode {
	if a.nb == len(a.blocks) {
		a.blocks = append(a.blocks, make([]lnode, lnodeBlockSize))
	}
	ln := &a.blocks[a.nb][a.used]
	if a.used++; a.used == lnodeBlockSize {
		a.nb, a.used = a.nb+1, 0
	}
	return ln
}

// newCellLnode copies a fetched cell into a fresh arena lnode.
func (st *tstate) newCellLnode(c *Cell) *lnode {
	ln := st.lna.alloc()
	*ln = lnode{half: c.Half, cofm: c.CofM, mass: c.Mass, sub: c.Sub}
	return ln
}

// newBodyLnode makes an arena lnode leaf for a fetched body.
func (st *tstate) newBodyLnode(r upc.Ref, pos vec.V3, mass float64) *lnode {
	ln := st.lna.alloc()
	*ln = lnode{isBody: true, bodyRef: r, cofm: pos, mass: mass}
	return ln
}

// fetchLocalRoot copies the global root into a fresh local tree.
func (s *Sim) fetchLocalRoot(t *upc.Thread, st *tstate) *lnode {
	st.lna.reset()
	rootNR := s.readRoot(t, st)
	c := s.cells.ReadView(t, rootNR.Ref(), cellBytes)
	return st.newCellLnode(c)
}

// localizeChildren implements Listing 1/Listing 2: fetch every child of n
// into the local tree (one blocking get per child, as the paper's first
// caching scheme does) and mark n localized. With AliasLocalCells
// (§5.3.2) children that already live in this thread's shared memory are
// aliased through "shadow pointers" instead of being copied.
func (s *Sim) localizeChildren(t *upc.Thread, st *tstate, n *lnode) {
	for oct, slot := range n.sub {
		if slot.IsNil() {
			continue
		}
		r := slot.Ref()
		if slot.IsBody() {
			b := s.bodies.ReadView(t, r, bytesBodyMass)
			n.child[oct] = st.newBodyLnode(r, b.Pos, b.Mass)
			continue
		}
		if s.o.AliasLocalCells && s.cells.IsLocal(t, r) {
			cp := s.cells.Raw(r)
			s.cells.Touch(t, r, bytesSlot) // shadow-pointer setup: a local deref
			n.child[oct] = st.newCellLnode(cp)
			st.cellsAliased++
			continue
		}
		// Whole-cell transfer (remote) or local copy; same charge as Get.
		c := s.cells.ReadView(t, r, cellBytes)
		t.Charge(s.par.CellInitCost + float64(cellBytes)*s.par.ByteCopyCost)
		n.child[oct] = st.newCellLnode(c)
		st.cellsCopied++
	}
	n.localized = true
}

// forceCached is the §5.3 force computation (simulate only): walk the
// private local tree with plain pointers, localizing cells on demand
// with blocking gets.
func (s *Sim) forceCached(t *upc.Thread, st *tstate, measured bool) {
	st.lroot = s.fetchLocalRoot(t, st)
	eps := s.readEps(t, st)
	tol := s.readTol(t, st)
	epsSq := eps * eps

	stack := st.lnodeStack
	for _, br := range st.myBodies {
		pos := s.bodyPos(t, st, br)
		var acc vec.V3
		var phi float64
		inter := 0

		stack = append(stack[:0], st.lroot)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			d := n.cofm.Sub(pos) // shared by the opening test and the interaction
			d2 := d.Len2()
			if n.isBody {
				if n.bodyRef == br {
					continue
				}
			} else if !octree.AcceptDist2(d2, n.half, tol) {
				if !n.localized {
					s.localizeChildren(t, st, n)
				}
				for oct := 7; oct >= 0; oct-- {
					if ch := n.child[oct]; ch != nil {
						stack = append(stack, ch)
					}
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
