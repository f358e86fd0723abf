package core

import (
	"fmt"

	"upcbh/internal/arena"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
)

// This file is the native backend's step. Under ModeNative the emulated
// PGAS heaps are ordinary host memory and there is no pointer tree (New
// builds none; Options.validate admits native from LevelCacheTree up):
// the threads build the step's flat octree (internal/octree FlatTree) directly and in parallel
// (octree.ParBuild: bin, per-thread subtree build, stitch — no cells
// heap, no locks, no merge, no flatten), partition it by a prefix over
// its cost array, and walk it with the batched kernel. The four levels
// L3-L6 share this one path: what distinguishes them in the paper (how
// remote cells are cached, merged, fetched, hooked) is communication
// that native execution does not have. See DESIGN.md §8.2-§8.5.
//
// The tree is the canonical octree of the body set with one fixed
// floating-point association, whoever built which part, so native
// results are a pure function of the bodies — the same at every thread
// count and bit-identical to the simulate backend at one thread, whose
// pointer paths remain the reference (flatnative_test.go,
// internal/verify). The simulate backend never takes these paths, so its
// charged phase tables stay byte-identical (pinned by the goldens).

// flatTree is the shared state of the direct tree path: the parallel
// builder, whose Tree every thread walks from the tree barrier to the
// force barrier, and the heap ref of the body in each of the builder's
// staging slots (Tree.Bodies.ID maps a tree slot to its staging slot).
// Built before the partition and read until the force barrier of the
// same step, so one buffer suffices.
type flatTree struct {
	octree.ParBuild
	refs []upc.Ref
	seen []bool // verifyFlat's scratch, by body id; nil unless Options.Verify
}

// initFlatTree sizes the builder once the body count is final, on the
// goroutine that starts the session (the arenas are single-owner, and no
// thread runs yet).
func (s *Sim) initFlatTree() {
	n, p := s.o.Bodies, s.rt.Threads()
	s.flat.Init(n, p, octree.CrownDepth(n, p), s.mem, s.tmem)
	s.flat.refs = arena.MakeSlice[upc.Ref](s.mem, n, n)
}

// stepFlat is the native arm of stepOnce up to the force phase: build,
// partition, redistribute. Only the build ends at a barrier. Once the
// tree is complete nothing downstream reads what another thread writes
// before the force barrier: the partition reads the tree alone,
// redistribute gathers slots their old owner no longer touches
// (DESIGN.md §8.5), and the force phase takes positions from the tree.
func (s *Sim) stepFlat(t *upc.Thread, st *tstate, ph *PhaseTimes, measured bool) {
	t0, s0 := s.beginPhase(t)
	s.buildFlat(t, st, measured)
	s.endPhase(t, st, ph, PhaseTree, t0, s0, measured)
	if s.o.Verify {
		if t.ID() == 0 {
			s.verifyFlat()
		}
		t.Barrier()
	}
	t0, s0 = s.beginPhase(t)
	s.costzonesFlat(t, st)
	s.endPhaseFlow(t, st, ph, PhasePartition, t0, s0, measured)
	t0, s0 = s.beginPhase(t)
	s.redistribute(t, st, measured)
	s.endPhaseFlow(t, st, ph, PhaseRedist, t0, s0, measured)
}

// buildFlat drives this thread through the stages of octree.ParBuild,
// with a barrier after each; the caller's phase barrier closes the last.
func (s *Sim) buildFlat(t *upc.Thread, st *tstate, measured bool) {
	t0 := t.Now()
	g := s.boundingBox(t, st)
	w := s.flat.Worker(t.ID())
	w.Begin(g.Center, g.Half, len(st.myBodies))
	for i, br := range st.myBodies {
		w.Count(i, s.bodies.Local(t, br).Pos)
	}
	t.Barrier()
	w.Offsets()
	for i, br := range st.myBodies {
		b := s.bodies.Local(t, br)
		c := b.Cost
		if c <= 0 {
			c = 1
		}
		s.flat.refs[w.Put(i, b.Pos, b.Mass, c)] = br
	}
	t.Barrier()
	w.Build()
	t1 := t.Now()
	t.Barrier()
	if t.ID() == 0 {
		s.flat.Crown()
	}
	t.Barrier()
	w.Stitch()
	if measured {
		st.treeLocalT += t1 - t0
		st.treeMergeT += t.Now() - t1
	}
}

// costzonesFlat is costzones on the flat tree: bodies are in tree order
// in the cost array, so the DFS cost prefix is a running sum over it, and
// the claim rule is costzones' — a body belongs to the thread whose
// [lo, hi) share of the total its prefix starts in. Costs are
// integer-valued, so the sums are exact and this is the partition the
// pointer walk produces. The claimed slots are one contiguous interval,
// kept in slotLo for the force phase.
func (s *Sim) costzonesFlat(t *upc.Thread, st *tstate) {
	ft := &s.flat.Tree
	total := ft.Meta[0].Cost
	lo := total * float64(t.ID()) / float64(t.P())
	hi := total * float64(t.ID()+1) / float64(t.P())
	st.myBodies = st.myBodies[:0]
	st.slotLo = 0
	prefix := 0.0
	for j, c := range ft.Bodies.Cost {
		if prefix >= hi {
			break
		}
		if prefix >= lo {
			if len(st.myBodies) == 0 {
				st.slotLo = j
			}
			st.myBodies = append(st.myBodies, s.flat.refs[ft.Bodies.ID[j]])
		}
		prefix += c
	}
}

// forceFlat is the native force phase for LevelCacheTree and above: this
// thread's bodies are tree slots slotLo, slotLo+1, … in myBodies order
// (costzonesFlat claimed them so, redistribute keeps the order), so each
// batch of FlatBatchWidth takes its lane positions from the tree and
// skips itself by slot. Unlike the pointer walks, a body that migrated
// this step therefore does not interact with its own build-time copy.
// Zero allocations in steady state.
func (s *Sim) forceFlat(t *upc.Thread, st *tstate, measured bool) {
	ft := &s.flat.Tree
	tol, eps := st.tol, st.eps // replicated at LevelScalars and above
	var fb octree.FlatBatch
	mb := st.myBodies
	for base := 0; base < len(mb); base += octree.FlatBatchWidth {
		w := min(octree.FlatBatchWidth, len(mb)-base)
		fb.N = w
		for lane := 0; lane < w; lane++ {
			slot := st.slotLo + base + lane
			fb.Pos[lane] = ft.Bodies.Pos[slot]
			fb.Skip[lane] = int32(slot)
		}
		st.fwalker.ForceBatch(ft, &fb, tol, eps)
		for lane := 0; lane < w; lane++ {
			b := s.bodies.Local(t, mb[base+lane])
			b.Acc = fb.Acc[lane]
			b.Phi = fb.Phi[lane]
			b.Cost = float64(fb.Inter[lane])
			if measured {
				st.inter += uint64(fb.Inter[lane])
			}
		}
	}
}

// verifyFlat is verifyTree for the direct tree path (Options.Verify, on
// thread 0 after the tree barrier): the flat tree's own structural
// invariants — DFS layout, kids in octant order, bodies inside their
// cells, N and mass additive — plus the two the partition relies on:
// every cell's Cost is EXACTLY the sum of its kids' (see verifyTree), and
// the slots hold every body exactly once, as it is in the heap.
func (s *Sim) verifyFlat() {
	ft := &s.flat.Tree
	if err := ft.Verify(); err != nil {
		panic(fmt.Sprintf("core verify: %v", err))
	}
	for i := range ft.Nodes {
		nd := &ft.Nodes[i]
		var cost float64
		for _, c := range ft.Kids[nd.First : nd.First+nd.Count] {
			if c < 0 {
				cost += ft.Bodies.Cost[octree.FlatLeafBody(c)]
			} else {
				cost += ft.Meta[c].Cost
			}
		}
		if ft.Meta[i].Cost != cost {
			panic(fmt.Sprintf("core verify: flat cell %d cost %v != exact kid-cost sum %v (level %v)", i, ft.Meta[i].Cost, cost, s.o.Level))
		}
	}
	if ft.Bodies.Len() != s.o.Bodies {
		panic(fmt.Sprintf("core verify: flat tree holds %d bodies, want %d", ft.Bodies.Len(), s.o.Bodies))
	}
	if s.flat.seen == nil {
		s.flat.seen = make([]bool, s.o.Bodies)
	}
	seen := s.flat.seen
	clear(seen)
	for j, src := range ft.Bodies.ID {
		b := s.bodies.Raw(s.flat.refs[src])
		if b.ID < 0 || int(b.ID) >= len(seen) {
			panic(fmt.Sprintf("core verify: flat slot %d resolves to a record with body id %d, outside [0, %d)", j, b.ID, len(seen)))
		}
		if seen[b.ID] {
			panic(fmt.Sprintf("core verify: body %d appears twice in the flat tree", b.ID))
		}
		seen[b.ID] = true
		cost := b.Cost
		if cost <= 0 {
			cost = 1
		}
		if b.Pos != ft.Bodies.Pos[j] || b.Mass != ft.Bodies.Mass[j] || cost != ft.Bodies.Cost[j] {
			panic(fmt.Sprintf("core verify: flat slot %d is not body %d as the heap holds it", j, b.ID))
		}
	}
}
