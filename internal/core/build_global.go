package core

import (
	"fmt"

	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// maxDepth bounds tree descent; exceeding it means (near-)coincident
// bodies the octree cannot separate.
const maxDepth = 48

// buildGlobal is the SPLASH2/baseline tree construction (§4, and §5.1-5.3
// levels; simulate only): every thread inserts its bodies into one shared octree,
// protecting mutations with the hashed lock array. At LevelBaseline the
// root geometry and root pointer are shared scalars read per insertion.
func (s *Sim) buildGlobal(t *upc.Thread, st *tstate) {
	g := s.boundingBox(t, st)

	// Thread 0 creates the (empty) root cell.
	var rootRef upc.Ref
	if t.ID() == 0 {
		rootRef = s.newCell(t, st, g.Center, g.Half)
	}
	if s.replicated() {
		st.root = CellRef(upc.Broadcast(t, 0, rootRef))
	} else {
		if t.ID() == 0 {
			s.rootS.Write(t, CellRef(rootRef))
		}
		t.Barrier()
	}

	for _, br := range st.myBodies {
		geom := s.readGeom(t, st) // per-insertion rsize read at baseline
		root := s.readRoot(t, st)
		pos := s.bodyPos(t, st, br)
		s.insertBody(t, st, br, pos, root.Ref(), geom.Center, geom.Half)
	}
}

// insertBody descends the shared tree from cur (covering center/half) and
// places the body, splitting leaves under the cell lock as SPLASH2's
// loadtree does. Slots are read without the lock; modifications are
// serialized by the hashed lock of the parent cell.
func (s *Sim) insertBody(t *upc.Thread, st *tstate, bodyR upc.Ref, pos vec.V3, cur upc.Ref, center vec.V3, half float64) {
	for depth := 0; ; depth++ {
		if depth > maxDepth {
			panic(fmt.Sprintf("core: octree depth limit exceeded inserting body %v (coincident bodies?)", bodyR))
		}
		t.Charge(s.par.TreeLevelCost)
		oct := octree.Octant(center, pos)
		cp := s.cells.Raw(cur)
		s.cells.Touch(t, cur, bytesSlot)
		slot := cp.Sub[oct]
		switch {
		case slot.IsCell():
			cur = slot.Ref()
			center, half = octree.ChildBounds(center, half, oct)

		case slot.IsNil():
			lk := s.locks.ForRef(cur)
			lk.Acquire(t)
			if cp.Sub[oct].IsNil() {
				s.cells.TouchPut(t, cur, bytesSlot)
				cp.Sub[oct] = BodyRef(bodyR)
				lk.Release(t)
				return
			}
			lk.Release(t) // lost the race; retry this level

		default: // occupied by a body: split the leaf under the lock
			lk := s.locks.ForRef(cur)
			lk.Acquire(t)
			if cp.Sub[oct] != slot {
				lk.Release(t)
				continue // slot changed under us; retry this level
			}
			oldR := slot.Ref()
			oldPos := s.bodyPos(t, st, oldR)
			cc, ch := octree.ChildBounds(center, half, oct)
			top := s.buildChain(t, st, cc, ch, oldR, oldPos, bodyR, pos, nil)
			s.cells.TouchPut(t, cur, bytesSlot)
			cp.Sub[oct] = CellRef(top)
			lk.Release(t)
			return
		}
	}
}

// chainAgg, when non-nil, makes buildChain fill cell aggregates from the
// two bodies (used by the merged build, where no separate c-of-m phase
// runs).
type chainAgg struct {
	oldMass, oldCost float64
	newMass, newCost float64
}

// buildChain creates the cell chain separating two bodies that fall in
// the same octant path, entirely in the caller's shard, and returns the
// top cell. The chain is unpublished until the caller stores it.
func (s *Sim) buildChain(t *upc.Thread, st *tstate, center vec.V3, half float64,
	oldR upc.Ref, oldPos vec.V3, newR upc.Ref, newPos vec.V3, agg *chainAgg) upc.Ref {

	top := s.newCell(t, st, center, half)
	cur := top
	for depth := 0; ; depth++ {
		if depth > maxDepth {
			panic(fmt.Sprintf("core: octree depth limit exceeded splitting leaf: old=%v@%+v new=%v@%+v cube=(%+v,%g) contains=%v/%v",
				oldR, oldPos, newR, newPos, center, half,
				octree.Contains(center, half, oldPos), octree.Contains(center, half, newPos)))
		}
		t.Charge(s.par.TreeLevelCost)
		cp := s.cells.Raw(cur)
		if agg != nil {
			m := agg.oldMass + agg.newMass
			cp.Mass = m
			if m > 0 {
				cp.CofM = oldPos.Scale(agg.oldMass/m).AddScaled(newPos, agg.newMass/m)
			}
			cp.Cost = agg.oldCost + agg.newCost
			cp.NSub = 2
		}
		o1 := octree.Octant(cp.Center, oldPos)
		o2 := octree.Octant(cp.Center, newPos)
		if o1 != o2 {
			cp.Sub[o1] = BodyRef(oldR)
			cp.Sub[o2] = BodyRef(newR)
			return top
		}
		cc, ch := octree.ChildBounds(cp.Center, cp.Half, o1)
		next := s.newCell(t, st, cc, ch)
		cp.Sub[o1] = CellRef(next)
		cur = next
	}
}

// cofmGlobal is the SPLASH2 center-of-mass phase (L0-L3, simulate only):
// each thread processes the cells it created in reverse creation order
// (bottom-up) and spin-waits on children owned by other threads via the
// Done flag.
func (s *Sim) cofmGlobal(t *upc.Thread, st *tstate) {
	for i := len(st.myCells) - 1; i >= 0; i-- {
		cr := st.myCells[i]
		cp := s.cells.Raw(cr) // mine: local access
		var wsum vec.V3
		var mass, cost float64
		var n int32
		for oct := range cp.Sub {
			slot := cp.Sub[oct] // build phase is over; slots are stable
			switch {
			case slot.IsNil():
				continue
			case slot.IsBody():
				b := s.bodies.ReadView(t, slot.Ref(), bytesBodyCost)
				wsum = wsum.AddScaled(b.Pos, b.Mass)
				mass += b.Mass
				cost += b.Cost
				n++
			default:
				chR := slot.Ref()
				chP := s.cells.Raw(chR)
				// Spin on the child's Done flag; each poll is a charged
				// access, and on success the clock aligns to the
				// modelled flag-set time.
				polls := 0
				for chP.Done == 0 {
					if t.Poisoned() {
						panic("core: aborting c-of-m spin: a peer thread failed")
					}
					polls++
					s.cells.Touch(t, chR, 4)
					// Offer the baton to lower-clock peers: each failed
					// poll is charged, so the spin converges in virtual
					// time and the poll count is deterministic.
					t.SpinYield()
				}
				if polls > 0 {
					t.AdvanceTo(chP.DoneAt)
					s.cells.Touch(t, chR, 4)
				}
				agg := s.cells.ReadView(t, chR, bytesAgg)
				wsum = wsum.AddScaled(agg.CofM, agg.Mass)
				mass += agg.Mass
				cost += agg.Cost
				n += agg.NSub
			}
			t.Charge(s.par.TreeLevelCost)
		}
		cp.Mass = mass
		cp.Cost = cost
		cp.NSub = n
		if mass > 0 {
			cp.CofM = wsum.Scale(1 / mass)
		} else {
			cp.CofM = cp.Center
		}
		cp.DoneAt = t.Now()
		cp.Done = 1
	}
}

// costzones is the SPLASH2 partitioner (used through LevelAsync under
// simulate; native partitions with costzonesFlat): walk
// the shared tree depth-first accumulating body costs; each thread claims
// the bodies whose cost prefix falls in its equal share of the total.
// Pruning disjoint subtrees keeps the walk near O(own zone). The walk is
// iterative over a retained explicit stack (children pushed in reverse,
// so the visit — and hence charge — order equals the recursive one);
// steady-state steps allocate nothing.
func (s *Sim) costzones(t *upc.Thread, st *tstate) {
	rootNR := s.readRoot(t, st)
	rootRef := rootNR.Ref()
	total := s.cells.ReadView(t, rootRef, bytesAgg).Cost
	if total <= 0 {
		total = float64(s.o.Bodies)
	}
	lo := total * float64(t.ID()) / float64(t.P())
	hi := total * float64(t.ID()+1) / float64(t.P())
	st.myBodies = st.myBodies[:0]

	prefix := 0.0
	stack := append(st.nodeStack[:0], rootNR)
	for len(stack) > 0 {
		nr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nr.IsBody() {
			b := s.bodies.ReadView(t, nr.Ref(), bytesBodyCost)
			c := b.Cost
			if c <= 0 {
				c = 1
			}
			// Claim by prefix start; identical arithmetic on all threads
			// makes the claims a disjoint cover.
			if prefix >= lo && prefix < hi {
				st.myBodies = append(st.myBodies, nr.Ref())
			}
			prefix += c
			t.Charge(s.par.LocalDerefCost)
			continue
		}
		cell := s.cells.ReadView(t, nr.Ref(), cellBytes)
		if prefix+cell.Cost <= lo || prefix >= hi {
			prefix += cell.Cost
			continue // disjoint subtree: prune
		}
		t.Charge(s.par.TreeLevelCost)
		for oct := 7; oct >= 0; oct-- {
			if slot := cell.Sub[oct]; !slot.IsNil() {
				stack = append(stack, slot)
			}
		}
	}
	st.nodeStack = stack[:0]
}

// redistribute implements §5.2: pull remotely stored owned bodies into
// the local double buffer with one indexed gather, swizzle mybodytab to
// the local copies, and compact into the alternate buffer when full.
func (s *Sim) redistribute(t *upc.Thread, st *tstate, measured bool) {
	me := int32(t.ID())
	rs := &st.remote
	remoteIdx := rs.idx[:0]
	remoteRefs := rs.refs[:0]
	for i, br := range st.myBodies {
		if br.Thr != me {
			remoteIdx = append(remoteIdx, i)
			remoteRefs = append(remoteRefs, br)
		}
	}
	rs.idx, rs.refs = remoteIdx, remoteRefs
	if measured {
		st.migrated += len(remoteRefs)
		st.ownedTot += len(st.myBodies)
	}

	if st.curLen+len(remoteRefs) > st.bufCap {
		s.compactBuffer(t, st)
		if measured {
			st.bufCopies++
		}
	}
	if st.curLen+len(remoteRefs) > st.bufCap {
		panic(fmt.Sprintf("core: thread %d body buffer overflow: %d owned + %d incoming > cap %d",
			t.ID(), st.curLen, len(remoteRefs), st.bufCap))
	}
	if len(remoteRefs) > 0 {
		base := st.buf[st.cur]
		dst := s.bodies.LocalSlice(t, upc.Ref{Thr: me, Idx: base.Idx + int32(st.curLen)}, len(remoteRefs))
		s.bodies.Gather(t, remoteRefs, dst)
		for j, i := range remoteIdx {
			st.myBodies[i] = upc.Ref{Thr: me, Idx: base.Idx + int32(st.curLen+j)}
		}
		st.curLen += len(remoteRefs)
	}
}

// compactBuffer copies the live owned bodies into the alternate buffer
// and switches to it ("When curbuf fills up, the thread copies all the
// bodies in mybodytab[] to the alternative buffer", §5.2).
func (s *Sim) compactBuffer(t *upc.Thread, st *tstate) {
	me := int32(t.ID())
	alt := st.buf[1-st.cur]
	w := 0
	for i, br := range st.myBodies {
		if br.Thr != me {
			continue // still remote; will be gathered after the swap
		}
		if w >= st.bufCap {
			panic("core: compaction overflow: owned bodies exceed buffer capacity")
		}
		*s.bodies.Raw(upc.Ref{Thr: me, Idx: alt.Idx + int32(w)}) = *s.bodies.Raw(br)
		st.myBodies[i] = upc.Ref{Thr: me, Idx: alt.Idx + int32(w)}
		w++
	}
	t.Charge(float64(w*bodyBytes) * s.par.ByteCopyCost)
	st.cur = 1 - st.cur
	st.curLen = w
}

// advance is the body-advancing phase: a leapfrog (kick-drift) update of
// every owned body. Below LevelRedistribute the body may live in another
// thread's shard and the update is a charged remote read-modify-write.
func (s *Sim) advance(t *upc.Thread, st *tstate) {
	if s.flat != nil {
		s.advanceFlat(st)
		return
	}
	dt := s.o.Dt
	for _, br := range st.myBodies {
		t.Charge(s.par.BodyUpdateCost)
		if s.o.Level >= LevelRedistribute && s.bodies.IsLocal(t, br) {
			nbody.AdvanceKickDrift(s.bodies.Local(t, br), dt)
			continue
		}
		s.bodies.Touch(t, br, bytesBodyAll)
		s.bodies.PutBytes(t, br, bytesBodyAll, func(b *nbody.Body) {
			nbody.AdvanceKickDrift(b, dt)
		})
	}
}
