package core

import (
	"fmt"
	"math"
	"slices"

	"upcbh/internal/arena"
	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// flatEngine is the native backend (DESIGN.md §8). The threads build the
// step's flat octree directly and in parallel (the embedded builder),
// partition it by a prefix over its cost array, and walk it with the
// batched kernel; levels L3-L6 share this one path, since what separates
// them in the paper is communication native execution does not have. The
// last tree's body view (Tree.Bodies) is the body state, with ID-indexed
// columns for what the tree does not carry, and a thread owns the slot
// interval its partition claimed. The tree is canonical whoever built
// which part, so native results are a pure function of the bodies — the
// same at every thread count, and bit-identical to the simulate engine at
// one thread. Its threads are a fork-join team: each Step(k) is one
// region of k steps.
type flatEngine struct {
	octree.ParBuild

	sim  *Sim
	team *team
	// grant is the step count of the region in flight, and steps that
	// region's body, built once so a region allocates nothing.
	grant int
	steps func(m *member)

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

	o    Options
	init []nbody.Body
	ts   []*flatThread

	// mem backs the flat tree's shared arrays and the body columns with
	// off-heap (mmap) memory; tmem[i] backs thread i's builder segment.
	// Arenas are single-owner bump allocators, so the shared one is
	// touched only by thread 0 (and by newFlatEngine, before any thread
	// runs) and each tmem[i] only by its thread. Nil when mmap is
	// unavailable — growth then falls back to the Go heap.
	mem  *arena.Arena
	tmem []*arena.Arena
}

// flatThread is one thread's native state: its force walker, and the
// flat-tree slot of myBodies[0] — this step's owned bodies are slots
// slotLo, slotLo+1, … in myBodies order.
type flatThread struct {
	*tstate
	fwalker octree.FlatWalker
	slotLo  int
}

// accPhi is a body's force result.
type accPhi struct {
	Acc vec.V3
	Phi float64
}

// newFlatEngine maps the arenas and sizes the builder and the columns
// for the Sim's final body count, before any thread runs. The arenas
// leave room for the doubling-growth dead space; anonymous mappings
// commit pages lazily, so over-reserving virtual space costs nothing.
func newFlatEngine(sim *Sim) *flatEngine {
	n, p := sim.o.Bodies, len(sim.ts)
	s := &flatEngine{sim: sim, team: newTeam(p), o: sim.o, init: sim.init, ts: make([]*flatThread, p), tmem: make([]*arena.Arena, p)}
	s.steps = s.stepRegion
	for i, st := range sim.ts {
		s.ts[i] = &flatThread{tstate: st}
	}
	if a, err := arena.New(2048*n + 8<<20); err == nil {
		s.mem = a
	}
	for i := range s.tmem {
		if a, err := arena.New(1024*(n/p+1) + 1<<20); err == nil {
			s.tmem[i] = a
		}
	}
	s.Init(n, p, octree.CrownDepth(n, p), s.mem, s.tmem)
	s.ids = arena.MakeSlice[upc.Ref](s.mem, n, n)
	s.vel = arena.MakeSlice[vec.V3](s.mem, n, n)
	s.acc = arena.MakeSlice[accPhi](s.mem, n, n)
	s.cost = arena.MakeSlice[float64](s.mem, n, n)
	return s
}

// start is the setup region: every thread takes its block of slots.
func (s *flatEngine) start() {
	s.team.run(func(m *member) {
		s.setup(m)
		m.Barrier()
	})
}

// resume is one region of k steps on every thread.
func (s *flatEngine) resume(k int) {
	s.grant = k
	s.team.run(s.steps)
}

func (s *flatEngine) stepRegion(m *member) {
	st := s.ts[m.id]
	for range s.grant {
		stepOnce(s.sim, s, m, st.tstate)
	}
}

// finish has nothing to end: between regions the team holds no
// goroutine.
func (s *flatEngine) finish() {}

func (s *flatEngine) clock(int) float64 { return s.team.now() }

// counters are the team's barrier counts; native has no scheduler.
func (s *flatEngine) counters() (upc.Stats, upc.SchedStats) {
	return s.team.totalStats(), upc.SchedStats{}
}

// release unmaps the arenas after the threads have exited; any slice
// into them (the flat tree, builder segments) is dead now.
func (s *flatEngine) release() {
	s.mem.Close()
	for _, a := range s.tmem {
		a.Close()
	}
}

// setup gives thread t the block of slots [lo, hi) and their bodies.
func (s *flatEngine) setup(t *member) {
	st := s.ts[t.ID()]
	me, p, n := t.ID(), len(s.ts), s.o.Bodies
	lo, hi := me*n/p, (me+1)*n/p
	st.slotLo = lo
	st.myBodies = st.myBodies[:0]
	for j := lo; j < hi; j++ {
		s.setBody(j, &s.init[j])
		st.myBodies = append(st.myBodies, upc.Ref{Thr: int32(me), Idx: s.init[j].ID})
	}
}

// body is tree slot j's body, whose ID is id, as one record.
func (s *flatEngine) body(j int, id int32) nbody.Body {
	return nbody.Body{
		Pos: s.Tree.Bodies.Pos[j], Mass: s.Tree.Bodies.Mass[j], Cost: s.cost[id], ID: id,
		Vel: s.vel[id], Acc: s.acc[id].Acc, Phi: s.acc[id].Phi,
	}
}

// setBody stores b as tree slot j's body; b.ID must be in range.
func (s *flatEngine) setBody(j int, b *nbody.Body) {
	s.Tree.Bodies.Pos[j], s.Tree.Bodies.Mass[j] = b.Pos, b.Mass
	s.cost[b.ID], s.vel[b.ID], s.acc[b.ID] = b.Cost, b.Vel, accPhi{b.Acc, b.Phi}
}

// ownPos is the Pos column of this thread's slot interval.
func (s *flatEngine) ownPos(st *flatThread) []vec.V3 {
	return s.Tree.Bodies.Pos[st.slotLo : st.slotLo+len(st.myBodies)]
}

// prepare is the native step up to the force phase: build and
// partition. Only the build ends at a barrier. Once the tree is complete
// nothing downstream reads what another thread writes before the force
// barrier: the partition reads the tree and ids, and the force phase
// takes positions from the tree and writes its own bodies' columns
// (DESIGN.md §8.5). Claiming slots is all the redistribution there is.
func (s *flatEngine) prepare(t *member, measured bool) (ph PhaseTimes) {
	st := s.ts[t.ID()]
	t0, s0 := beginPhase(t)
	s.buildFlat(t, st, measured)
	st.endPhase(t, &ph, PhaseTree, t0, s0, measured)
	if s.o.Verify {
		if t.ID() == 0 {
			s.verifyFlat()
		}
		t.Barrier()
	}
	t0, s0 = beginPhase(t)
	s.costzonesFlat(t, st, measured)
	st.endPhaseFlow(t, &ph, PhasePartition, t0, s0, measured)
	return ph
}

// boundingBox computes the new root geometry: a pass over the thread's
// own slots, then, since the team has no collectives, a barrier after
// which every thread folds its peers' boxes itself. Min and max are
// exact, so this is the cube the simulator's all-reduce gives.
func (s *flatEngine) boundingBox(t *member, st *flatThread) rootGeom {
	lo := vec.V3{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi := lo.Scale(-1)
	for _, pos := range s.ownPos(st) {
		lo = lo.Min(pos)
		hi = hi.Max(pos)
	}
	st.bbLo = [3]float64{lo.X, lo.Y, lo.Z}
	st.bbHi = [3]float64{hi.X, hi.Y, hi.Z}
	t.Barrier()
	for _, o := range s.ts {
		lo = lo.Min(vec.V3{X: o.bbLo[0], Y: o.bbLo[1], Z: o.bbLo[2]})
		hi = hi.Max(vec.V3{X: o.bbHi[0], Y: o.bbHi[1], Z: o.bbHi[2]})
	}
	center, half := nbody.RootCell(lo, hi)
	st.geom = rootGeom{Center: center, Half: half}
	return st.geom
}

// buildFlat drives this thread through the stages of octree.ParBuild,
// with a barrier after each; the caller's phase barrier closes the last.
// Box, count and put read the thread's own slots of the last tree, which
// stage 3 overwrites only after the put barrier.
func (s *flatEngine) buildFlat(t *member, st *flatThread, measured bool) {
	t0 := t.Now()
	g := s.boundingBox(t, st)
	w := s.Worker(t.ID())
	pos := s.ownPos(st)
	w.Count(g.Center, g.Half, pos)
	t.Barrier()
	w.Offsets()
	me := int32(t.ID())
	mass := s.Tree.Bodies.Mass[st.slotLo:]
	for i, r := range st.myBodies {
		c := s.cost[r.Idx]
		if c <= 0 {
			c = 1
		}
		s.ids[w.Put(i, pos[i], mass[i], c)] = upc.Ref{Thr: me, Idx: r.Idx}
	}
	t.Barrier()
	w.Build()
	t1 := t.Now()
	t.Barrier()
	if t.ID() == 0 {
		s.Crown()
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
func (s *flatEngine) costzonesFlat(t *member, st *flatThread, measured bool) {
	ft := &s.Tree
	me := int32(t.ID())
	total := ft.Meta[0].Cost
	lo := total * float64(me) / float64(len(s.ts))
	hi := total * float64(me+1) / float64(len(s.ts))
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
			r := s.ids[ft.Bodies.ID[j]]
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

// force is the native force phase (LevelCacheTree and above): this
// thread's bodies are tree slots slotLo, slotLo+1, … in myBodies order,
// so each batch of FlatBatchWidth takes its lane positions from the tree
// and skips itself by slot. Unlike the pointer walks, a body that
// migrated this step therefore does not interact with its own build-time
// copy. Zero allocations in steady state.
func (s *flatEngine) force(t *member, measured bool) {
	st := s.ts[t.ID()]
	ft := &s.Tree
	tol, eps := s.o.Theta, s.o.Eps
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
			s.acc[id] = accPhi{fb.Acc[lane], fb.Phi[lane]}
			s.cost[id] = float64(fb.Inter[lane])
			if measured {
				st.inter += uint64(fb.Inter[lane])
			}
		}
	}
}

// advance is nbody.AdvanceKickDrift, operation for operation, on the
// thread's own slots of the tree every walk finished with at the force
// barrier.
func (s *flatEngine) advance(t *member) {
	st := s.ts[t.ID()]
	dt := s.o.Dt
	pos := s.ownPos(st)
	for i, r := range st.myBodies {
		v := s.vel[r.Idx].AddScaled(s.acc[r.Idx].Acc, dt)
		s.vel[r.Idx] = v
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
func (s *flatEngine) verifyFlat() {
	ft := &s.Tree
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
		id := s.ids[src].Idx
		if err := ids.claim(id); err != nil {
			panic(fmt.Sprintf("core verify: flat slot %d: %v", j, err))
		}
		cost := s.cost[id]
		if cost <= 0 {
			cost = 1
		}
		if s.Src.Pos[src] != ft.Bodies.Pos[j] || s.Src.Mass[src] != ft.Bodies.Mass[j] || cost != ft.Bodies.Cost[j] {
			panic(fmt.Sprintf("core verify: flat slot %d is not body %d as it was staged", j, id))
		}
	}
	if err := ids.covered(); err != nil {
		panic(fmt.Sprintf("core verify: flat tree: %v", err))
	}
}

// gather reads every owned body from its tree slot and the columns.
func (s *flatEngine) gather(out []nbody.Body, ids *idSet) error {
	for _, st := range s.ts {
		for k, br := range st.myBodies {
			if err := ids.claim(br.Idx); err != nil {
				return err
			}
			out[br.Idx] = s.body(st.slotLo+k, br.Idx)
		}
	}
	return nil
}

// capture writes the n bodies in tree-slot order (the "bodies" region),
// the team's state, and the replicated tol and eps each thread's walk
// uses. The pointer tree's fields stay zero, and "locks" is [], not null.
func (s *flatEngine) capture(cs *ckptState, sc *captureScratch) []arena.NamedRegion {
	cs.Runtime = s.team.state()
	cs.Locks = []float64{}
	bodies := slices.Grow(sc.bodies[:0], s.o.Bodies)
	for i, st := range s.ts {
		for k, r := range st.myBodies {
			bodies = append(bodies, s.body(st.slotLo+k, r.Idx))
		}
		cs.Threads[i].Tol, cs.Threads[i].Eps = s.o.Theta, s.o.Eps
	}
	sc.bodies = bodies
	return []arena.NamedRegion{{Name: regBodies, Data: bodyRecordBytes(bodies)}}
}

// restore takes the team's counters back and gives thread i the n_owned
// slots after threads 0..i-1's. Clocks (0), NIC and scheduler state, and
// the locks and shared scalars older native containers carry, are
// ignored.
func (s *flatEngine) restore(cs *ckptState, _ *arena.Checkpoint, bodies []nbody.Body) error {
	if err := s.team.restoreState(cs.Runtime); err != nil {
		return err
	}
	slot := 0
	for i, st := range s.ts {
		st.slotLo = slot
		st.myBodies = st.myBodies[:0]
		for range cs.Threads[i].NOwned {
			s.setBody(slot, &bodies[slot])
			st.myBodies = append(st.myBodies, upc.Ref{Thr: int32(i), Idx: bodies[slot].ID})
			slot++
		}
	}
	return nil
}
