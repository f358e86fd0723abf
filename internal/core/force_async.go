package core

import (
	"slices"

	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// wbody is one entry of the §5.5 working-body list: a body whose force is
// being computed concurrently with others, with its frontier of tree
// nodes still to process.
type wbody struct {
	br  upc.Ref
	pos vec.V3
	acc vec.V3
	phi float64

	inter   int
	active  []*lnode // frontier nodes ready to process
	blocked []*lnode // frontier nodes waiting for their children
}

// reqItem maps one gathered child back to its place in the local tree.
type reqItem struct {
	parent *lnode
	oct    int
	isBody bool
	idx    int // index into the request's cell or body staging buffer
}

// request is one aggregated non-blocking gather
// (bupc_memget_vlist_async): all children of a batch of parents, staged
// into per-heap buffers. For simplicity all children of a cell travel in
// the same request, so a request handles between n3 and n3+7 nodes, as in
// the paper. hc and hb are the two gathers' handles, set when cellRefs
// and bodyRefs (respectively) are non-empty.
type request struct {
	parents  []*lnode
	items    []reqItem
	cellRefs []upc.Ref
	cellDst  []Cell
	bodyRefs []upc.Ref
	bodyDst  []nbody.Body
	hc, hb   upc.Handle
}

func (r *request) empty() bool { return len(r.items) == 0 }

// getWbody/putWbody and getRequest/putRequest recycle the async-force
// working structures across bodies and steps; their slices keep their
// capacity, so the steady-state force phase stops allocating.
func (st *tstate) getWbody(br upc.Ref, pos vec.V3) *wbody {
	if n := len(st.wbFree); n > 0 {
		wb := st.wbFree[n-1]
		st.wbFree = st.wbFree[:n-1]
		*wb = wbody{br: br, pos: pos, active: wb.active[:0], blocked: wb.blocked[:0]}
		return wb
	}
	return &wbody{br: br, pos: pos}
}

func (st *tstate) putWbody(wb *wbody) { st.wbFree = append(st.wbFree, wb) }

func (st *tstate) getRequest() *request {
	if n := len(st.reqFree); n > 0 {
		r := st.reqFree[n-1]
		st.reqFree = st.reqFree[:n-1]
		return r
	}
	return &request{}
}

func (st *tstate) putRequest(r *request) {
	*r = request{
		parents:  r.parents[:0],
		items:    r.items[:0],
		cellRefs: r.cellRefs[:0],
		cellDst:  r.cellDst[:0],
		bodyRefs: r.bodyRefs[:0],
		bodyDst:  r.bodyDst[:0],
	}
	st.reqFree = append(st.reqFree, r)
}

// sized returns a destination slice of exactly n elements, reusing
// capacity (and growing it as append does). Stale trailing bytes beyond
// each staged prefix are never read: cell gathers copy whole elements,
// body gathers only expose the staged position/mass prefix.
func sized[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// forceAsync implements Listing 3 (simulate only): maintain n1 working
// bodies, aggregate needed remote children into requests of at least n3
// cells, keep at most n2 outstanding non-blocking gathers, and overlap
// communication with the force computation of bodies whose frontiers can
// still make progress.
func (s *Sim) forceAsync(t *upc.Thread, st *tstate, measured bool) {
	st.lroot = s.fetchLocalRoot(t, st)
	eps := s.readEps(t, st)
	tol := s.readTol(t, st)
	epsSq := eps * eps
	n1, n2, n3 := s.o.N1, s.o.N2, s.o.N3

	queue := st.myBodies
	next := 0
	working := st.working[:0]
	pending := st.getRequest()
	outstanding := st.outstanding[:0] // FIFO of issued requests

	enqueueChildren := func(n *lnode) {
		n.requested = true
		pending.parents = append(pending.parents, n)
		for oct, slot := range n.sub {
			if slot.IsNil() {
				continue
			}
			if slot.IsBody() {
				pending.items = append(pending.items, reqItem{parent: n, oct: oct, isBody: true, idx: len(pending.bodyRefs)})
				pending.bodyRefs = append(pending.bodyRefs, slot.Ref())
			} else {
				pending.items = append(pending.items, reqItem{parent: n, oct: oct, idx: len(pending.cellRefs)})
				pending.cellRefs = append(pending.cellRefs, slot.Ref())
			}
		}
	}

	issue := func() {
		if pending.empty() {
			return
		}
		r := pending
		pending = st.getRequest()
		if len(r.cellRefs) > 0 {
			r.cellDst = sized(r.cellDst, len(r.cellRefs))
			r.hc = s.cells.GatherAsync(t, r.cellRefs, r.cellDst)
		}
		if len(r.bodyRefs) > 0 {
			r.bodyDst = sized(r.bodyDst, len(r.bodyRefs))
			// Only the position/mass prefix travels: the owners are
			// concurrently writing force results into the same bodies.
			r.hb = s.bodies.GatherAsyncBytes(t, r.bodyRefs, r.bodyDst, bytesBodyMass)
		}
		outstanding = append(outstanding, r)
	}

	complete := func(r *request) {
		if len(r.cellRefs) > 0 {
			t.WaitSync(&r.hc)
		}
		if len(r.bodyRefs) > 0 {
			t.WaitSync(&r.hb)
		}
		for _, it := range r.items {
			if it.isBody {
				b := &r.bodyDst[it.idx]
				it.parent.child[it.oct] = st.newBodyLnode(r.bodyRefs[it.idx], b.Pos, b.Mass)
				continue
			}
			c := &r.cellDst[it.idx]
			t.Charge(s.par.CellInitCost + float64(cellBytes)*s.par.ByteCopyCost)
			it.parent.child[it.oct] = st.newCellLnode(c)
			st.cellsCopied++
		}
		for _, p := range r.parents {
			p.localized = true
		}
		st.putRequest(r)
	}

	unblock := func() {
		for _, wb := range working {
			keep := wb.blocked[:0]
			for _, n := range wb.blocked {
				if n.localized {
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
			n := wb.active[len(wb.active)-1]
			wb.active = wb.active[:len(wb.active)-1]
			d := n.cofm.Sub(wb.pos) // shared by the opening test and the interaction
			d2 := d.Len2()
			if n.isBody {
				if n.bodyRef == wb.br {
					continue
				}
			} else if !octree.AcceptDist2(d2, n.half, tol) {
				if n.localized {
					for oct := 7; oct >= 0; oct-- {
						if ch := n.child[oct]; ch != nil {
							wb.active = append(wb.active, ch)
						}
					}
					continue
				}
				if !n.requested {
					enqueueChildren(n)
				}
				wb.blocked = append(wb.blocked, n)
				continue
			}
			sc, mr := nbody.PairKernel(d2, n.mass, epsSq)
			acc = acc.AddScaled(d, sc)
			phi -= mr
			inter++
			t.Charge(s.par.InteractionCost)
		}
		wb.acc, wb.phi, wb.inter = acc, phi, inter
	}

	for {
		// Fill up the list of working bodies.
		for len(working) < n1 && next < len(queue) {
			br := queue[next]
			next++
			wb := st.getWbody(br, s.bodyPos(t, st, br))
			wb.active = append(wb.active, st.lroot)
			working = append(working, wb)
		}
		if len(working) == 0 {
			if pending.empty() && len(outstanding) == 0 {
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
				s.writeForce(t, st, wb.br, wb.acc, wb.phi, wb.inter)
				if measured {
					st.inter += uint64(wb.inter)
				}
				st.putWbody(wb)
			} else {
				keep = append(keep, wb)
			}
		}
		working = keep

		// Send out a request if it is long enough and a slot is free.
		if len(pending.items) >= n3 && len(outstanding) < n2 {
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
	st.putRequest(pending)
	st.working = working[:0]
	st.outstanding = outstanding
}
