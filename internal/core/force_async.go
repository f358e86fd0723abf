package core

import (
	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// wbody is one entry of the §5.5 working-body list: a body whose force is
// being computed concurrently with others, with its frontier of
// local-tree nodes still to process.
type wbody struct {
	br  upc.Ref
	pos vec.V3
	acc vec.V3
	phi float64

	inter   int
	active  []int32 // frontier nodes ready to process
	blocked []int32 // frontier nodes waiting for their children
}

// request is one aggregated non-blocking gather
// (bupc_memget_vlist_async): all children of a batch of parents. For
// simplicity all children of a cell travel in the same request, so a
// request handles between n3 and n3+7 nodes, as in the paper. hc and hb
// are the two gathers' ledger ordinals, set when cellRefs and bodyRefs
// (respectively) are non-empty; the gathers only account, and complete
// reads the children from their heaps.
type request struct {
	parents  []int32
	cellRefs []upc.Ref
	bodyRefs []upc.Ref
	hc, hb   int32
}

func (r *request) len() int { return len(r.cellRefs) + len(r.bodyRefs) }

// getWbody/putWbody and getRequest/putRequest recycle the async-force
// working structures across bodies and steps; their slices keep their
// capacity, so the steady-state force phase stops allocating.
func (w *walker) getWbody(br upc.Ref, pos vec.V3) *wbody {
	if n := len(w.wbFree); n > 0 {
		wb := w.wbFree[n-1]
		w.wbFree = w.wbFree[:n-1]
		*wb = wbody{br: br, pos: pos, active: wb.active[:0], blocked: wb.blocked[:0]}
		return wb
	}
	return &wbody{br: br, pos: pos}
}

func (w *walker) putWbody(wb *wbody) { w.wbFree = append(w.wbFree, wb) }

func (w *walker) getRequest() *request {
	if n := len(w.reqFree); n > 0 {
		r := w.reqFree[n-1]
		w.reqFree = w.reqFree[:n-1]
		return r
	}
	return &request{}
}

func (w *walker) putRequest(r *request) {
	*r = request{parents: r.parents[:0], cellRefs: r.cellRefs[:0], bodyRefs: r.bodyRefs[:0]}
	w.reqFree = append(w.reqFree, r)
}

// forceAsync implements Listing 3 (simulate only): maintain n1 working
// bodies, aggregate needed remote children into requests of at least n3
// cells, keep at most n2 outstanding non-blocking gathers, and overlap
// communication with the force computation of bodies whose frontiers can
// still make progress. Like forceCached it runs on the force plane.
func (s *simEngine) forceAsync(st *simThread, w *walker, measured bool) {
	l := &st.ledger
	s.fetchLocalRoot(st, w)
	tol, epsSq := st.tol, st.eps*st.eps
	n1, n2, n3 := s.o.N1, s.o.N2, s.o.N3

	queue := st.myBodies
	next := 0
	working := w.working[:0]
	pending := w.getRequest()
	outstanding := w.outstanding[:0] // FIFO of issued requests

	enqueueChildren := func(i int32) {
		n := &w.lnodes[i]
		n.requested = true
		pending.parents = append(pending.parents, i)
		for _, slot := range &s.cells.Raw(n.ref).Sub {
			switch {
			case slot.IsBody():
				pending.bodyRefs = append(pending.bodyRefs, slot.Ref())
			case !slot.IsNil():
				pending.cellRefs = append(pending.cellRefs, slot.Ref())
			}
		}
	}

	issue := func() {
		if pending.len() == 0 {
			return
		}
		r := pending
		pending = w.getRequest()
		if len(r.cellRefs) > 0 {
			r.hc = l.Gather(r.cellRefs, cellBytes)
		}
		if len(r.bodyRefs) > 0 {
			// Only the position/mass prefix travels: the owners are
			// concurrently writing force results into the same bodies.
			r.hb = l.Gather(r.bodyRefs, bytesBodyMass)
		}
		outstanding = append(outstanding, r)
	}

	// complete waits for r's gathers and appends each parent's children
	// to the local tree, in octant order, reading them at sync; every
	// copied cell is charged its initialization.
	complete := func(r *request) {
		if len(r.cellRefs) > 0 {
			l.Wait(r.hc)
		}
		if len(r.bodyRefs) > 0 {
			l.Wait(r.hb)
		}
		l.Charge(s.par.CellInitCost+float64(cellBytes)*s.par.ByteCopyCost, len(r.cellRefs))
		st.cellsCopied += uint64(len(r.cellRefs))
		for _, i := range r.parents {
			kids := int32(len(w.lnodes))
			for _, slot := range &s.cells.Raw(w.lnodes[i].ref).Sub {
				switch {
				case slot.IsBody():
					w.addBody(slot.Ref(), s.bodies.Raw(slot.Ref()))
				case !slot.IsNil():
					w.addCell(slot.Ref(), s.cells.Raw(slot.Ref()))
				}
			}
			w.linkKids(i, kids)
		}
		w.putRequest(r)
	}

	unblock := func() {
		for _, wb := range working {
			keep := wb.blocked[:0]
			for _, n := range wb.blocked {
				if w.lnodes[n].localized {
					wb.active = append(wb.active, n)
				} else {
					keep = append(keep, n)
				}
			}
			wb.blocked = keep
		}
	}

	processBody := func(wb *wbody) {
		// The sums live in locals for the whole call and are stored back
		// once; the frontier outlives the call, so it stays on wb.
		acc, phi, inter := wb.acc, wb.phi, wb.inter
		for len(wb.active) > 0 {
			i := wb.active[len(wb.active)-1]
			wb.active = wb.active[:len(wb.active)-1]
			n := &w.lnodes[i]
			d := n.cofm.Sub(wb.pos) // shared by the opening test and the interaction
			d2 := d.Len2()
			if n.isBody {
				if n.ref == wb.br {
					continue
				}
			} else if !octree.AcceptDist2(d2, n.half, tol) {
				if n.localized {
					for k := n.kids + int32(n.nk) - 1; k >= n.kids; k-- {
						wb.active = append(wb.active, k)
					}
					continue
				}
				if !n.requested {
					enqueueChildren(i)
				}
				wb.blocked = append(wb.blocked, i)
				continue
			}
			sc, mr := nbody.PairKernel(d2, n.mass, epsSq)
			acc = acc.AddScaled(d, sc)
			phi -= mr
			inter++
		}
		l.Charge(s.par.InteractionCost, inter-wb.inter)
		wb.acc, wb.phi, wb.inter = acc, phi, inter
	}

	for {
		// Fill up the list of working bodies.
		for len(working) < n1 && next < len(queue) {
			br := queue[next]
			next++
			wb := w.getWbody(br, s.cachedPos(st, br))
			wb.active = append(wb.active, 0)
			working = append(working, wb)
		}
		if len(working) == 0 {
			if pending.len() == 0 && len(outstanding) == 0 {
				break
			}
			issue()
			if len(outstanding) > 0 {
				complete(outstanding[0])
				outstanding = outstanding[:copy(outstanding, outstanding[1:])]
			}
			continue
		}

		// Compute force for working bodies until they can't make progress.
		for _, wb := range working {
			processBody(wb)
		}

		// Retire finished bodies.
		keep := working[:0]
		for _, wb := range working {
			if len(wb.active) == 0 && len(wb.blocked) == 0 {
				s.storeForce(st, wb.br, wb.acc, wb.phi, wb.inter)
				if measured {
					st.inter += uint64(wb.inter)
				}
				w.putWbody(wb)
			} else {
				keep = append(keep, wb)
			}
		}
		working = keep

		// Send out a request if it is long enough and a slot is free.
		if pending.len() >= n3 && len(outstanding) < n2 {
			issue()
		}

		// If every working body is blocked, we must drain communication.
		stuck := len(working) > 0 || next < len(queue)
		for _, wb := range working {
			if len(wb.active) > 0 {
				stuck = false
			}
		}
		if len(working) == n1 || next >= len(queue) {
			// No new bodies can enter; progress requires completions.
			if stuck {
				if len(outstanding) == 0 {
					issue()
				}
				if len(outstanding) > 0 {
					complete(outstanding[0])
					outstanding = outstanding[:copy(outstanding, outstanding[1:])]
					unblock()
				}
			}
		}
	}
	w.putRequest(pending)
	w.working = working[:0]
	w.outstanding = outstanding
}
