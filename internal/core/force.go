package core

import (
	"runtime"
	"sync/atomic"

	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// force is the simulator's force phase: the pointer walk of the
// optimization level. forceNaive, forceCached and forceAsync are the
// paper's three ways of paying for (or hiding) remote access. The cached
// levels' walks read no clock, so they run on the force plane and the
// thread applies the accounting they recorded.
func (s *simEngine) force(t *upc.Thread, measured bool) {
	st := s.ts[t.ID()]
	if s.o.Level < LevelCacheTree {
		s.forceNaive(t, st, measured)
		return
	}
	s.plane.await(t.ID(), measured)
	t.Apply(&st.ledger)
}

// forcePlane runs the cached levels' force walks of every thread on up to
// min(GOMAXPROCS, P) host goroutines, each walk recording into its
// thread's ledger (DESIGN.md §9, "Host workers and the ledger"). Walker
// 0 is the baton holder's, so a session keeps one local tree per host
// goroutine, not per thread. Gate i signals that ledger i is filled.
// Ledgers are claimed in the order the baton asks for them: the thread
// that opens the phase, then the rest by id.
type forcePlane struct {
	region
	walk     func(w *walker, i int) // records thread i's walk
	walkers  []*walker
	work     func(k int) // walker k ≥ 1's goroutine
	measured bool
	first    int
	next     atomic.Int32 // ledgers claimed
	entered  int          // threads that reached the phase
}

func (p *forcePlane) init(n int, walk func(w *walker, i int)) {
	p.region.init(n)
	p.walk = walk
	p.work = func(k int) {
		for j := p.claim(); j >= 0; j = p.claim() {
			p.guard(j, p.walkers[k].fill)
		}
	}
}

// claim returns the next unclaimed ledger, or -1 once none is left or the
// plane failed.
func (p *forcePlane) claim() int {
	k := int(p.next.Add(1)) - 1
	switch {
	case k >= len(p.gates) || p.poisoned.Load() != nil:
		return -1
	case k == 0:
		return p.first
	case k <= p.first:
		return k - 1
	}
	return k
}

// await returns once thread i's ledger is filled, in i's baton turn. The
// phase's first thread starts the workers; a thread fills unclaimed
// ledgers until its own is filled or none is left, then parks on its
// gate; the last one joins the workers, re-raising a failed walk.
func (p *forcePlane) await(i int, measured bool) {
	if p.entered == 0 {
		p.first, p.measured = i, measured
		p.next.Store(0)
		k := min(runtime.GOMAXPROCS(0), len(p.gates))
		for len(p.walkers) < k {
			w := new(walker)
			w.fill = func(i int) {
				p.walk(w, i)
				wake(p.gates[i])
			}
			p.walkers = append(p.walkers, w)
		}
		p.start(k, p.work)
	}
	p.entered++
	for len(p.gates[i]) == 0 {
		j := p.claim()
		if j < 0 {
			break
		}
		p.guard(j, p.walkers[0].fill)
	}
	// Woken by a worker, the baton would resume on the worker's OS
	// thread, and the session's later steps with it; held to its own,
	// simulate-levels' baseline steps read 17–19 ms, not 26–30, on two
	// vCPUs (DESIGN.md §9).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	<-p.gates[i]
	if p.entered == len(p.gates) || p.poisoned.Load() != nil {
		p.entered = 0
		p.join()
	}
}

// walker is one host goroutine's force-walk scratch, reused by every walk
// it makes: the §5.3+ local tree (node 0 is the root), its walk stack,
// the async force's working lists and object pools (force_async.go), and
// its fill of ledger i (the walk, then gate i's wake).
type walker struct {
	lnodes      []lnode
	lnodeStack  []int32
	working     []*wbody
	outstanding []*request
	wbFree      []*wbody
	reqFree     []*request
	fill        func(i int)
}

// walkLedger records thread i's cached walk, made with w, into its ledger.
func (s *simEngine) walkLedger(w *walker, i int) {
	st := s.ts[i]
	st.ledger.Reset()
	if s.o.Level >= LevelAsync {
		s.forceAsync(st, w, s.plane.measured)
	} else {
		s.forceCached(st, w, s.plane.measured)
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

// lnode is a node of a thread's cached local tree (§5.3): either a
// cached copy of a remote cell, an alias of a local cell (§5.3.2), or a
// cached body leaf. The local tree is one []lnode per walker, reused by
// every walk, whose nodes name each other by index: a localized cell's
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
func (w *walker) addCell(r upc.Ref, c *Cell) {
	w.lnodes = append(w.lnodes, lnode{cofm: c.CofM, mass: c.Mass, half: c.Half, ref: r})
}

// addBody appends a leaf for the body b at r to the local tree.
func (w *walker) addBody(r upc.Ref, b *nbody.Body) {
	w.lnodes = append(w.lnodes, lnode{cofm: b.Pos, mass: b.Mass, ref: r, isBody: true})
}

// linkKids records that the local-tree nodes from kids to the end are
// node i's children, and marks it localized.
func (w *walker) linkKids(i, kids int32) {
	n := &w.lnodes[i]
	n.kids, n.nk, n.localized = kids, uint8(int32(len(w.lnodes))-kids), true
}

// fetchLocalRoot starts a fresh local tree (node 0) with a copy of the
// global root.
func (s *simEngine) fetchLocalRoot(st *simThread, w *walker) {
	r := st.root.Ref()
	st.ledger.Get(r, cellBytes)
	w.lnodes = w.lnodes[:0]
	w.addCell(r, s.cells.Raw(r))
}

// cachedPos is bodyPos on the force plane.
func (s *simEngine) cachedPos(st *simThread, r upc.Ref) vec.V3 {
	if r.Thr != st.id {
		st.ledger.Get(r, bytesBodyPos)
	}
	return s.bodies.Raw(r).Pos
}

// storeForce is writeForce on the force plane.
func (s *simEngine) storeForce(st *simThread, br upc.Ref, acc vec.V3, phi float64, inter int) {
	if br.Thr != st.id {
		st.ledger.Put(br, bytesBodyAcc)
	}
	b := s.bodies.Raw(br)
	b.Acc, b.Phi, b.Cost = acc, phi, float64(inter)
}

// localizeChildren implements Listing 1/Listing 2: fetch every child of
// node i into the local tree (one blocking get per child, as the paper's
// first caching scheme does) and mark it localized. With AliasLocalCells
// (§5.3.2) children that already live in this thread's shared memory are
// aliased through "shadow pointers" instead of being copied.
func (s *simEngine) localizeChildren(st *simThread, w *walker, i int32) {
	l := &st.ledger
	kids := int32(len(w.lnodes))
	for _, slot := range &s.cells.Raw(w.lnodes[i].ref).Sub {
		if slot.IsNil() {
			continue
		}
		r := slot.Ref()
		if slot.IsBody() {
			l.Get(r, bytesBodyMass)
			w.addBody(r, s.bodies.Raw(r))
			continue
		}
		if s.o.AliasLocalCells && r.Thr == st.id {
			l.Get(r, bytesSlot) // shadow-pointer setup: a local deref
			w.addCell(r, s.cells.Raw(r))
			st.cellsAliased++
			continue
		}
		// Whole-cell transfer (remote) or local copy; same charge as Get.
		l.Get(r, cellBytes)
		l.Charge(s.par.CellInitCost+float64(cellBytes)*s.par.ByteCopyCost, 1)
		w.addCell(r, s.cells.Raw(r))
		st.cellsCopied++
	}
	w.linkKids(i, kids)
}

// forceCached is the §5.3 force computation (simulate only): walk the
// private local tree, localizing cells on demand with blocking gets. It
// runs on the force plane: its accounting goes to st.ledger, and the
// scalars are the replicated ones.
func (s *simEngine) forceCached(st *simThread, w *walker, measured bool) {
	s.fetchLocalRoot(st, w)
	tol, epsSq := st.tol, st.eps*st.eps

	stack := w.lnodeStack
	for _, br := range st.myBodies {
		pos := s.cachedPos(st, br)
		var acc vec.V3
		var phi float64
		inter, charged := 0, 0 // interactions, and those recorded

		stack = append(stack[:0], 0)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := &w.lnodes[i]
			d := n.cofm.Sub(pos) // shared by the opening test and the interaction
			d2 := d.Len2()
			if n.isBody {
				if n.ref == br {
					continue
				}
			} else if !octree.AcceptDist2(d2, n.half, tol) {
				if !n.localized {
					st.ledger.Charge(s.par.InteractionCost, inter-charged)
					charged = inter
					s.localizeChildren(st, w, i)
					n = &w.lnodes[i]
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
		}

		st.ledger.Charge(s.par.InteractionCost, inter-charged)
		s.storeForce(st, br, acc, phi, inter)
		if measured {
			st.inter += uint64(inter)
		}
	}
	w.lnodeStack = stack[:0]
}
