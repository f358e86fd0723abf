package core

import (
	"fmt"
	"slices"

	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// subsp is one subspace of the §6 algorithm. All threads compute an
// identical subspace tree because division decisions depend only on
// globally reduced costs.
type subsp struct {
	center     vec.V3
	half       float64
	parent     int32
	oct        int8
	firstChild int32 // index of child 0, or -1 for a leaf
	cost       float64
	owner      int32 // owning thread, for leaves
	intIdx     int32 // dense index among internal subspaces (top-tree cells)
}

// subspaceState is per-thread scratch for the subspace builder, reused
// across steps.
type subspaceState struct {
	nodes    []subsp
	bodiesOf [][]int32 // this thread's bodies per subspace (indices into myBodies)
	leaves   []int32   // leaf subspaces in DFS order

	// Per-step scratch retained across steps so steady-state subspace
	// stepping allocates nothing: the root body-index list, the division
	// frontier, the per-level cost vector (reduced in place), the
	// all-to-all send and receive matrices, and the leaf-binning slots
	// (first-appearance ordered; see the binning loop for why the order
	// matters). bodiesOf's entries keep their backing arrays too, past
	// its length; slot 0, the root, aliases allBuf and is only ever
	// reassigned, never appended to.
	allBuf    []int32
	frontier  []int32
	costBuf   []float64
	send      [][]nbody.Body
	recv      [][]nbody.Body
	leafSlot  map[int32]int32
	leafOrder []int32
	leafRows  [][]upc.Ref
}

func newSubspaceState() *subspaceState {
	return &subspaceState{leafSlot: make(map[int32]int32)}
}

func (ss *subspaceState) reset() {
	ss.nodes = ss.nodes[:0]
	ss.bodiesOf = ss.bodiesOf[:0]
	ss.leaves = ss.leaves[:0]
}

func (ss *subspaceState) addNode(n subsp) int32 {
	ss.nodes = append(ss.nodes, n)
	if k := len(ss.bodiesOf); k < cap(ss.bodiesOf) {
		ss.bodiesOf = ss.bodiesOf[:k+1]
		ss.bodiesOf[k] = ss.bodiesOf[k][:0]
	} else {
		ss.bodiesOf = append(ss.bodiesOf, nil)
	}
	return int32(len(ss.nodes) - 1)
}

// collectLeaves appends the leaf subspaces under idx to ss.leaves in
// depth-first octant order.
func (ss *subspaceState) collectLeaves(idx int32) {
	n := &ss.nodes[idx]
	if n.firstChild < 0 {
		ss.leaves = append(ss.leaves, idx)
		return
	}
	for oct := int32(0); oct < 8; oct++ {
		ss.collectLeaves(n.firstChild + oct)
	}
}

// stepSubspace runs the §6 tree construction (simulate only) in place of
// the build/partition/redistribute phases: cost-threshold division with
// (vector) reductions, contiguous-leaf ownership, all-to-all body
// exchange, local subforest construction and lock-free hooking. Timers
// are charged to the paper's phases: division+subforest+hook+top-cofm to
// Tree-building, leaf-ownership to Partitioning, the body exchange to
// Redistribution.
func (s *simEngine) stepSubspace(t *upc.Thread, st *simThread, ph *PhaseTimes, measured bool) {
	ss := st.sub
	p := t.P()
	sSnap := t.Stats()
	comm := func(phase Phase) {
		if measured {
			st.phaseComm[phase].Add(t.Stats().Delta(sSnap))
		}
		sSnap = t.Stats()
	}

	// --- Tree-building, part 1: subspace division -----------------------
	t0 := t.Now()
	g := s.boundingBox(t, st)
	ss.reset()
	rootIdx := ss.addNode(subsp{center: g.Center, half: g.Half, parent: -1, firstChild: -1})
	ss.allBuf = slices.Grow(ss.allBuf[:0], len(st.myBodies))
	all := ss.allBuf[:len(st.myBodies)]
	var rootCost float64
	for i, br := range st.myBodies {
		all[i] = int32(i)
		c := s.bodies.Local(t, br).Cost
		if c <= 0 {
			c = 1
		}
		rootCost += c
		t.Charge(s.par.LocalDerefCost)
	}
	ss.bodiesOf[rootIdx] = all
	ss.costBuf = append(ss.costBuf[:0], rootCost)
	total := s.reduceCosts(t, ss.costBuf)[0]
	ss.nodes[rootIdx].cost = total
	tau := s.o.SubspaceAlpha * total / float64(p)

	frontier := append(ss.frontier[:0], rootIdx) // the root is always divided
	depth := 0
	for len(frontier) > 0 {
		if depth++; depth > maxDepth {
			panic("core: subspace division depth limit exceeded")
		}
		newStart := int32(len(ss.nodes))
		for _, fi := range frontier {
			f := &ss.nodes[fi]
			f.firstChild = int32(len(ss.nodes))
			for oct := 0; oct < 8; oct++ {
				cc, chh := octree.ChildBounds(f.center, f.half, oct)
				ss.addNode(subsp{center: cc, half: chh, parent: fi, oct: int8(oct), firstChild: -1})
			}
			// Scatter this thread's bodies of the divided subspace.
			first := ss.nodes[fi].firstChild
			for _, bi := range ss.bodiesOf[fi] {
				pos := s.bodies.Local(t, st.myBodies[bi]).Pos
				oct := octree.Octant(ss.nodes[fi].center, pos)
				ss.bodiesOf[first+int32(oct)] = append(ss.bodiesOf[first+int32(oct)], bi)
				t.Charge(s.par.TreeLevelCost)
			}
			ss.bodiesOf[fi] = ss.bodiesOf[fi][:0]
		}
		// Reduce the new level's costs: one vector collective (§6), or
		// one scalar collective per subspace when VectorReduce is off
		// (the figure 10 pathology).
		nNew := len(ss.nodes) - int(newStart)
		ss.costBuf = slices.Grow(ss.costBuf[:0], nNew)
		local := ss.costBuf[:nNew]
		for i := range local {
			var c float64
			for _, bi := range ss.bodiesOf[newStart+int32(i)] {
				bc := s.bodies.Local(t, st.myBodies[bi]).Cost
				if bc <= 0 {
					bc = 1
				}
				c += bc
			}
			local[i] = c
		}
		global := s.reduceCosts(t, local)
		frontier = frontier[:0]
		for i, c := range global {
			idx := newStart + int32(i)
			ss.nodes[idx].cost = c
			if c > tau {
				frontier = append(frontier, idx)
			}
		}
	}
	ss.frontier = frontier
	ph[PhaseTree] += t.Now() - t0
	comm(PhaseTree)
	t.Barrier()

	// --- Partitioning: contiguous-leaf ownership -------------------------
	t1 := t.Now()
	ss.leaves = ss.leaves[:0]
	ss.collectLeaves(rootIdx)
	prefix := 0.0
	owner := int32(0)
	for _, li := range ss.leaves {
		for int(owner) < p-1 && prefix >= total*float64(owner+1)/float64(p) {
			owner++
		}
		ss.nodes[li].owner = owner
		prefix += ss.nodes[li].cost
		t.Charge(s.par.LocalDerefCost)
	}
	// Classify my bodies by destination owner. The send matrix is reused
	// across steps (AllToAll receivers alias these rows, but they copy
	// the bodies out before the next step's classification).
	if cap(ss.send) < p {
		ss.send = make([][]nbody.Body, p)
	}
	send := ss.send[:p]
	for i := range send {
		send[i] = send[i][:0]
	}
	for _, li := range ss.leaves {
		own := ss.nodes[li].owner
		for _, bi := range ss.bodiesOf[li] {
			send[own] = append(send[own], *s.bodies.Local(t, st.myBodies[bi]))
			t.Charge(s.par.LocalDerefCost)
		}
	}
	ph[PhasePartition] += t.Now() - t1
	comm(PhasePartition)
	t.Barrier()

	// --- Redistribution: all-to-all body exchange ------------------------
	t2 := t.Now()
	recv := upc.AllToAll(t, send, ss.recv)
	ss.recv = recv
	count := 0
	for _, r := range recv {
		count += len(r)
	}
	if count > st.bufCap {
		st.bufCap = 2 * count
		st.buf[0] = s.bodies.Alloc(t, st.bufCap)
		st.buf[1] = s.bodies.Alloc(t, st.bufCap)
		st.cur = 0
	}
	alt := st.buf[1-st.cur]
	moved := 0
	w := 0
	st.myBodies = st.myBodies[:0]
	me := int32(t.ID())
	for src, r := range recv {
		if src != t.ID() {
			moved += len(r)
		}
		for i := range r {
			*s.bodies.Raw(upc.Ref{Thr: me, Idx: alt.Idx + int32(w)}) = r[i]
			st.myBodies = append(st.myBodies, upc.Ref{Thr: me, Idx: alt.Idx + int32(w)})
			w++
		}
	}
	t.Charge(float64(w*bodyBytes) * s.par.ByteCopyCost)
	st.cur = 1 - st.cur
	st.curLen = w
	if measured {
		st.migrated += moved
		st.ownedTot += w
	}
	ph[PhaseRedist] += t.Now() - t2
	comm(PhaseRedist)
	t.Barrier()

	// --- Tree-building, part 2: subforest, hooking, top c-of-m ----------
	t3 := t.Now()
	// Dense indices for internal subspaces (identical on all threads).
	nInternal := int32(0)
	for i := range ss.nodes {
		if ss.nodes[i].firstChild >= 0 {
			ss.nodes[i].intIdx = nInternal
			nInternal++
		}
	}
	// Thread 0 materializes the shared top tree: one cell per internal
	// subspace, pre-wired internal->internal.
	var base upc.Ref
	if t.ID() == 0 {
		base = s.cells.Alloc(t, int(nInternal))
		t.Charge(float64(nInternal) * s.par.CellInitCost)
		for i := range ss.nodes {
			n := &ss.nodes[i]
			if n.firstChild < 0 {
				continue
			}
			c := s.cells.Raw(upc.Ref{Thr: 0, Idx: base.Idx + n.intIdx})
			*c = Cell{Center: n.center, Half: n.half}
			for oct := int32(0); oct < 8; oct++ {
				ch := &ss.nodes[n.firstChild+oct]
				if ch.firstChild >= 0 {
					c.Sub[oct] = CellRef(upc.Ref{Thr: 0, Idx: base.Idx + ch.intIdx})
				}
			}
		}
	}
	base = upc.Broadcast(t, 0, base)
	st.root = CellRef(base) // the root subspace is internal idx 0

	// Bin my (now local) bodies into my owned leaves. Leaves are visited
	// in first-appearance order below (not Go map order): cell allocation
	// order and the per-leaf charge sequence feed the virtual clock, so
	// the iteration order must be deterministic for byte-identical phase
	// tables. Slots and rows are retained across steps.
	clear(ss.leafSlot)
	ss.leafOrder = ss.leafOrder[:0]
	for _, br := range st.myBodies {
		pos := s.bodies.Local(t, br).Pos
		idx := rootIdx
		for ss.nodes[idx].firstChild >= 0 {
			oct := octree.Octant(ss.nodes[idx].center, pos)
			idx = ss.nodes[idx].firstChild + int32(oct)
			t.Charge(s.par.TreeLevelCost)
		}
		if ss.nodes[idx].owner != me {
			panic(fmt.Sprintf("core: body routed to leaf owned by thread %d, held by %d", ss.nodes[idx].owner, me))
		}
		slot, seen := ss.leafSlot[idx]
		if !seen {
			slot = int32(len(ss.leafOrder))
			ss.leafSlot[idx] = slot
			ss.leafOrder = append(ss.leafOrder, idx)
			if int(slot) == len(ss.leafRows) {
				ss.leafRows = append(ss.leafRows, nil)
			}
			ss.leafRows[slot] = ss.leafRows[slot][:0]
		}
		ss.leafRows[slot] = append(ss.leafRows[slot], br)
	}
	// Build one local subtree per owned leaf and hook it (no locks: leaf
	// slots are disjoint).
	for slot, li := range ss.leafOrder {
		brs := ss.leafRows[slot]
		leaf := &ss.nodes[li]
		var hook NodeRef
		if len(brs) == 1 {
			hook = BodyRef(brs[0])
		} else {
			lr := s.newCell(t, st, leaf.center, leaf.half)
			for _, br := range brs {
				s.insertLocalTree(t, st, lr, br, s.bodies.Local(t, br).Pos)
			}
			s.cofmLocalTree(t, lr)
			hook = CellRef(lr)
		}
		parent := &ss.nodes[leaf.parent]
		pRef := upc.Ref{Thr: 0, Idx: base.Idx + parent.intIdx}
		s.cells.TouchPut(t, pRef, bytesSlot)
		s.cells.Raw(pRef).Sub[leaf.oct] = hook
	}
	t.Barrier()

	// Thread 0 computes centers of mass for the top cells (bottom-up:
	// internal nodes were created parent-before-child, so reverse order).
	if t.ID() == 0 {
		for i := len(ss.nodes) - 1; i >= 0; i-- {
			n := &ss.nodes[i]
			if n.firstChild < 0 {
				continue
			}
			cRef := upc.Ref{Thr: 0, Idx: base.Idx + n.intIdx}
			c := s.cells.Raw(cRef)
			var wsum vec.V3
			var mass, cost float64
			var cnt int32
			for oct := int32(0); oct < 8; oct++ {
				slot := c.Sub[oct]
				switch {
				case slot.IsNil():
					continue
				case slot.IsBody():
					b := s.bodies.ReadView(t, slot.Ref(), bytesBodyCost)
					wsum = wsum.AddScaled(b.Pos, b.Mass)
					mass += b.Mass
					bc := b.Cost
					if bc <= 0 {
						bc = 1
					}
					cost += bc
					cnt++
				default:
					agg := s.cells.ReadView(t, slot.Ref(), bytesAgg)
					wsum = wsum.AddScaled(agg.CofM, agg.Mass)
					mass += agg.Mass
					cost += agg.Cost
					cnt += agg.NSub
				}
				t.Charge(s.par.TreeLevelCost)
			}
			c.Mass, c.Cost, c.NSub = mass, cost, cnt
			if mass > 0 {
				c.CofM = wsum.Scale(1 / mass)
			} else {
				c.CofM = c.Center
			}
			c.Done = 1
		}
	}
	ph[PhaseTree] += t.Now() - t3
	comm(PhaseTree)
	t.Barrier()
}

// reduceCosts performs the per-level cost reduction in place: a single
// vector reduce&broadcast when VectorReduce is on, or one scalar
// collective per element when it is off.
func (s *simEngine) reduceCosts(t *upc.Thread, local []float64) []float64 {
	if s.o.VectorReduce {
		return upc.AllReduceVecF64(t, local, upc.OpSum)
	}
	for i, v := range local {
		local[i] = upc.AllReduceF64(t, v, upc.OpSum)
	}
	return local
}
