package core

import (
	"fmt"

	"upcbh/internal/arena"
	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
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
// Nor is there a body heap: the last tree's body view (Tree.Bodies, Pos
// and Mass by tree slot) is the body state, and what the tree does not
// carry sits in columns indexed by body ID. A thread owns the slot
// interval its partition claimed, advances it in place and stages it
// into the next build — SPLASH-2's one body array that costzones cuts
// into runs. The §5.2 double buffers make bodies local under UPC; native
// memory is all local.
//
// The tree is the canonical octree of the body set with one fixed
// floating-point association, whoever built which part, so native
// results are a pure function of the bodies — the same at every thread
// count and bit-identical to the simulate backend at one thread, whose
// pointer paths remain the reference (flatnative_test.go,
// internal/verify). The simulate backend never takes these paths, so its
// charged phase tables stay byte-identical (pinned by the goldens).

// flatTree is the native engine's shared state: the parallel builder,
// whose Tree every thread walks from the tree barrier to the force
// barrier and whose Tree.Bodies then holds the bodies until the next
// build, and the body state the tree does not carry.
type flatTree struct {
	octree.ParBuild

	// ids[k] names the body in Src slot k (Tree.Bodies.ID maps a tree
	// slot to its Src slot): Idx is its ID, Thr the thread that staged,
	// so last advanced, it. Written in the put stage and read from the
	// partition on; the next write is behind the force, advance and box
	// barriers.
	ids []upc.Ref

	// By body ID. A body's owner this step alone writes and reads them
	// (force: acc, cost; advance: vel; the next put stage: vel, cost), and
	// the step's barriers order one owner before the next. The new cost
	// has its own column: a slower thread may still be partitioning by
	// Tree.Bodies.Cost while a faster one runs its force phase
	// (DESIGN.md §8.5).
	vel  []vec.V3
	acc  []accPhi
	cost []float64
}

// accPhi is a body's force result.
type accPhi struct {
	Acc vec.V3
	Phi float64
}

// initFlatTree sizes the builder and the columns once the body count is
// final, on the goroutine that starts the session (the arenas are
// single-owner, and no thread runs yet).
func (s *Sim) initFlatTree() {
	n, p := s.o.Bodies, s.rt.Threads()
	f := s.flat
	f.Init(n, p, octree.CrownDepth(n, p), s.mem, s.tmem)
	f.ids = arena.MakeSlice[upc.Ref](s.mem, n, n)
	f.vel = arena.MakeSlice[vec.V3](s.mem, n, n)
	f.acc = arena.MakeSlice[accPhi](s.mem, n, n)
	f.cost = arena.MakeSlice[float64](s.mem, n, n)
}

// body is tree slot j's body, whose ID is id, as one record.
func (f *flatTree) body(j int, id int32) nbody.Body {
	return nbody.Body{
		Pos: f.Tree.Bodies.Pos[j], Mass: f.Tree.Bodies.Mass[j], Cost: f.cost[id], ID: id,
		Vel: f.vel[id], Acc: f.acc[id].Acc, Phi: f.acc[id].Phi,
	}
}

// setBody stores b as tree slot j's body; b.ID must be in range.
func (f *flatTree) setBody(j int, b *nbody.Body) {
	f.Tree.Bodies.Pos[j], f.Tree.Bodies.Mass[j] = b.Pos, b.Mass
	f.cost[b.ID], f.vel[b.ID], f.acc[b.ID] = b.Cost, b.Vel, accPhi{b.Acc, b.Phi}
}

// ownPos is the Pos column of this thread's slot interval.
func (s *Sim) ownPos(st *tstate) []vec.V3 {
	return s.flat.Tree.Bodies.Pos[st.slotLo : st.slotLo+len(st.myBodies)]
}

// stepFlat is the native arm of stepOnce up to the force phase: build and
// partition. Only the build ends at a barrier. Once the tree is complete
// nothing downstream reads what another thread writes before the force
// barrier: the partition reads the tree and ids, and the force phase
// takes positions from the tree and writes its own bodies' columns
// (DESIGN.md §8.5). Claiming slots is all the redistribution there is.
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
	s.costzonesFlat(t, st, measured)
	s.endPhaseFlow(t, st, ph, PhasePartition, t0, s0, measured)
}

// buildFlat drives this thread through the stages of octree.ParBuild,
// with a barrier after each; the caller's phase barrier closes the last.
// Box, count and put read the thread's own slots of the last tree, which
// stage 3 overwrites only after the put barrier.
func (s *Sim) buildFlat(t *upc.Thread, st *tstate, measured bool) {
	t0 := t.Now()
	g := s.boundingBox(t, st)
	f := s.flat
	w := f.Worker(t.ID())
	pos := s.ownPos(st)
	w.Begin(g.Center, g.Half, len(pos))
	for i, p := range pos {
		w.Count(i, p)
	}
	t.Barrier()
	w.Offsets()
	me := int32(t.ID())
	mass := f.Tree.Bodies.Mass[st.slotLo:]
	for i, r := range st.myBodies {
		c := f.cost[r.Idx]
		if c <= 0 {
			c = 1
		}
		f.ids[w.Put(i, pos[i], mass[i], c)] = upc.Ref{Thr: me, Idx: r.Idx}
	}
	t.Barrier()
	w.Build()
	t1 := t.Now()
	t.Barrier()
	if t.ID() == 0 {
		f.Crown()
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
// pointer walk produces. The claimed slots are one contiguous interval
// from slotLo; a body another thread staged has migrated.
func (s *Sim) costzonesFlat(t *upc.Thread, st *tstate, measured bool) {
	ft := &s.flat.Tree
	me := int32(t.ID())
	total := ft.Meta[0].Cost
	lo := total * float64(me) / float64(t.P())
	hi := total * float64(me+1) / float64(t.P())
	st.myBodies = st.myBodies[:0]
	st.slotLo = 0
	prefix, migrated := 0.0, 0
	for j, c := range ft.Bodies.Cost {
		if prefix >= hi {
			break
		}
		if prefix >= lo {
			if len(st.myBodies) == 0 {
				st.slotLo = j
			}
			r := s.flat.ids[ft.Bodies.ID[j]]
			if r.Thr != me {
				migrated++
			}
			st.myBodies = append(st.myBodies, r)
		}
		prefix += c
	}
	if measured {
		st.migrated += migrated
		st.ownedTot += len(st.myBodies)
	}
}

// forceFlat is the native force phase for LevelCacheTree and above: this
// thread's bodies are tree slots slotLo, slotLo+1, … in myBodies order,
// so each batch of FlatBatchWidth takes its lane positions from the tree
// and skips itself by slot. Unlike the pointer walks, a body that
// migrated this step therefore does not interact with its own build-time
// copy. Zero allocations in steady state.
func (s *Sim) forceFlat(t *upc.Thread, st *tstate, measured bool) {
	f := s.flat
	ft := &f.Tree
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
			id := mb[base+lane].Idx
			f.acc[id] = accPhi{fb.Acc[lane], fb.Phi[lane]}
			f.cost[id] = float64(fb.Inter[lane])
			if measured {
				st.inter += uint64(fb.Inter[lane])
			}
		}
	}
}

// advanceFlat is nbody.AdvanceKickDrift, operation for operation, on the
// thread's own slots of the tree every walk finished with at the force
// barrier.
func (s *Sim) advanceFlat(st *tstate) {
	f := s.flat
	dt := s.o.Dt
	pos := s.ownPos(st)
	for i, r := range st.myBodies {
		v := f.vel[r.Idx].AddScaled(f.acc[r.Idx].Acc, dt)
		f.vel[r.Idx] = v
		pos[i] = pos[i].AddScaled(v, dt)
	}
}

// verifyFlat is verifyTree for the direct tree path (Options.Verify, on
// thread 0 after the tree barrier): the flat tree's own structural
// invariants — DFS layout, kids in octant order, bodies inside their
// cells, N and mass additive — plus the two the partition relies on:
// every cell's Cost is EXACTLY the sum of its kids' (see verifyTree), and
// the slots hold every body exactly once, as it was staged, with the
// cost its column carries.
func (s *Sim) verifyFlat() {
	f := s.flat
	ft := &f.Tree
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
	ids := newIDSet(s.o.Bodies)
	for j, src := range ft.Bodies.ID {
		id := f.ids[src].Idx
		if err := ids.claim(id); err != nil {
			panic(fmt.Sprintf("core verify: flat slot %d: %v", j, err))
		}
		cost := f.cost[id]
		if cost <= 0 {
			cost = 1
		}
		if f.Src.Pos[src] != ft.Bodies.Pos[j] || f.Src.Mass[src] != ft.Bodies.Mass[j] || cost != ft.Bodies.Cost[j] {
			panic(fmt.Sprintf("core verify: flat slot %d is not body %d as it was staged", j, id))
		}
	}
	if err := ids.covered(); err != nil {
		panic(fmt.Sprintf("core verify: flat tree: %v", err))
	}
}
