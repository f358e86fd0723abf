package core

import (
	"runtime"
	"sync/atomic"

	"upcbh/internal/arena"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
)

// This file is the native-backend fast path: under ModeNative the
// emulated PGAS heaps are ordinary host memory, so the hot phases can
// run on the flat, arena-backed octree representation (internal/octree
// FlatTree) instead of chasing NodeRef slots cell by cell:
//
//   - tree build (merged levels): each thread Morton-sorts its owned
//     bodies and builds its local tree in a flat arena, then emits the
//     cells into its heap shard in one DFS pass (buildLocalFlat);
//   - force computation (LevelCacheTree and above): thread 0 snapshots
//     the fully built global tree into a double-buffered flat arena once
//     per step and publishes it RCU-style through an epoch-tagged atomic
//     pointer (no barrier), and every thread walks it with the batched
//     explicit-stack kernel (forceFlat) — the logical conclusion of the
//     paper's §5.3 local-tree caching on a real shared-memory host. See
//     DESIGN.md §8.3 for the happens-before argument.
//
// The simulate backend never takes these paths, so its charged phase
// tables stay byte-identical (pinned by the goldens). Physics is
// preserved exactly: the flat local trees are node-for-node and
// bit-for-bit the trees insertLocalTree+cofmLocalTree would build, and
// the snapshot kernel interacts with the same nodes in the same DFS
// order as the pointer walk of forceCached, including its self-skip
// semantics (a body whose tree leaf was re-owned and re-gathered this
// step interacts with its stale copy in both paths). The simulate
// backend's pointer paths are the reference the flat ones are tested
// against (flatnative_test.go, internal/verify).

// nativeFlat reports whether the flat-tree fast paths are active: always
// under ModeNative, never under ModeSimulate.
func (s *Sim) nativeFlat() bool {
	return s.o.ExecMode == ModeNative
}

// flatSnap is one published flat snapshot of the global tree plus the
// ref->leaf index used to reproduce the pointer walk's self-skip. Two of
// these live in flatState; their arenas are retained across steps and
// each is rebuilt in place every other step.
type flatSnap struct {
	// epoch tags which forceFlat entry built this snapshot. Written by
	// thread 0 strictly before the release-store that publishes the
	// snapshot, so a reader that observes its expected epoch through
	// flatState.cur also observes every arena write of the build.
	epoch uint64

	ft octree.FlatTree
	// leafIdx maps a bodies-heap ref (shard, index) to 1+its SoA slot in
	// ft; 0 means the ref is not a leaf of the snapshot. Cleared and
	// refilled per step (zeroing is a memclr, hence the +1 encoding).
	leafIdx [][]int32
}

// skipFor returns the snapshot SoA slot holding ref, or -1 — exactly the
// nodes the pointer walk would skip by bodyRef equality. Refs past the
// end of a shard's index (bodies gathered into fresh slots after the
// snapshot was taken) are never snapshot leaves, hence -1.
func (sn *flatSnap) skipFor(r upc.Ref) int32 {
	shard := sn.leafIdx[r.Thr]
	if int(r.Idx) >= len(shard) {
		return -1
	}
	return shard[r.Idx] - 1
}

// flatState is the per-Sim RCU publication point of the flat snapshot.
// Thread 0 builds each step's snapshot into the parity buffer
// bufs[epoch&1] and publishes it with a single atomic pointer swap; the
// other threads acquire it by epoch instead of rendezvousing at a
// barrier. Double buffering makes publication of step k+1 independent of
// any reader of step k: the builder only ever reuses the arena whose
// readers are two force barriers in the past.
type flatState struct {
	cur  atomic.Pointer[flatSnap]
	bufs [2]flatSnap
}

// acquire spins (yielding) until the snapshot for the given epoch is
// published and returns it. The force phase still ends at a barrier, so
// publication can never lap a reader by a full cycle; an epoch from the
// future means phase structure diverged across threads, which is a bug
// worth crashing on.
func (fs *flatState) acquire(epoch uint64) *flatSnap {
	for {
		sn := fs.cur.Load()
		if sn != nil {
			if sn.epoch == epoch {
				return sn
			}
			if sn.epoch > epoch {
				panic("core: flat snapshot epoch overrun (reader lapped by publisher)")
			}
		}
		runtime.Gosched()
	}
}

// flattenGlobal rebuilds one snapshot buffer from the global tree: DFS
// preorder over the cells heap (uncharged Raw access — the build phase
// is complete and ordered before the force phase by the partition
// barrier and the acquire of the published pointer), children in octant
// order, aggregate values copied verbatim. Bodies are packed into the
// SoA/PM views in DFS leaf order with their heap refs indexed for
// self-skip. The tree leaves reference body slots as of build time;
// a concurrent redistribute on another thread only writes slots beyond
// its shard's snapshot range (gather appends) or in its idle alternate
// buffer (compaction), so every slot this pass reads is frozen.
func (s *Sim) flattenGlobal(t *upc.Thread, st *tstate, sn *flatSnap) {
	ft := &sn.ft
	ft.Nodes = ft.Nodes[:0]
	ft.Meta = ft.Meta[:0]
	ft.Kids = ft.Kids[:0]
	ft.Bodies.Resize(0)
	ft.PM = ft.PM[:0]

	if sn.leafIdx == nil {
		sn.leafIdx = make([][]int32, t.P())
	}
	for thr := range sn.leafIdx {
		n := s.bodies.Len(thr)
		if cap(sn.leafIdx[thr]) < n {
			sn.leafIdx[thr] = arena.MakeSlice[int32](s.mem, n, n)
		}
		shard := sn.leafIdx[thr][:n]
		for i := range shard {
			shard[i] = 0
		}
		sn.leafIdx[thr] = shard
	}

	root := s.readRoot(t, st)
	ft.Center = s.cells.Raw(root.Ref()).Center
	ft.Half = s.cells.Raw(root.Ref()).Half
	s.flattenCell(sn, root.Ref())
}

func (s *Sim) flattenCell(sn *flatSnap, r upc.Ref) int32 {
	ft := &sn.ft
	c := s.cells.Raw(r)
	idx := int32(len(ft.Nodes))
	l := 2 * c.Half
	// Growth goes through the Sim's snapshot arena (thread 0 is the
	// only builder); at steady state these appends stay in place.
	ft.Nodes = arena.Append(s.mem, ft.Nodes, octree.FlatNode{CofM: c.CofM, Mass: c.Mass, LSq: l * l})
	ft.Meta = arena.Append(s.mem, ft.Meta, octree.FlatMeta{Center: c.Center, Half: c.Half, Cost: c.Cost, N: c.NSub})

	first := int32(len(ft.Kids))
	nkids := int32(0)
	for oct := range c.Sub {
		if !c.Sub[oct].IsNil() {
			nkids++
		}
	}
	for k := int32(0); k < nkids; k++ {
		ft.Kids = arena.Append(s.mem, ft.Kids, 0)
	}
	ft.Nodes[idx].First = first
	ft.Nodes[idx].Count = nkids

	ki := first
	for oct := range c.Sub {
		slot := c.Sub[oct]
		if slot.IsNil() {
			continue
		}
		if slot.IsBody() {
			br := slot.Ref()
			b := s.bodies.Raw(br)
			bi := int32(ft.Bodies.Len())
			ft.Bodies.Resize(int(bi) + 1)
			ft.Bodies.Set(int(bi), b.Pos, b.Mass, b.Cost, b.ID)
			ft.PM = arena.Append(s.mem, ft.PM, octree.PosMass{Pos: b.Pos, Mass: b.Mass})
			sn.leafIdx[br.Thr][br.Idx] = bi + 1
			ft.Kids[ki] = octree.FlatLeaf(bi)
		} else {
			ft.Kids[ki] = s.flattenCell(sn, slot.Ref())
		}
		ki++
	}
	return idx
}

// forceFlat is the native force phase for LevelCacheTree and above:
// thread 0 snapshots the tree into the current parity buffer and
// publishes it with an atomic pointer swap; every thread (thread 0
// included) acquires the snapshot by epoch and walks batches of
// FlatBatchWidth owned bodies through the shared flat kernel. There is
// no entry barrier: a thread that reaches the force phase early spins
// only until publication, not until the slowest thread's redistribute,
// and thread 0 starts flattening without waiting for anyone. Zero
// allocations in steady state — both snapshot buffers' arenas, the leaf
// indexes, and each thread's walker scratch are all retained across
// steps.
func (s *Sim) forceFlat(t *upc.Thread, st *tstate, measured bool) {
	st.flatEpoch++
	if t.ID() == 0 {
		sn := &s.flat.bufs[st.flatEpoch&1]
		s.flattenGlobal(t, st, sn)
		sn.epoch = st.flatEpoch
		s.flat.cur.Store(sn)
	}
	sn := s.flat.acquire(st.flatEpoch)

	ft := &sn.ft
	tol, eps := st.tol, st.eps // replicated at LevelScalars and above
	var fb octree.FlatBatch
	mb := st.myBodies
	for base := 0; base < len(mb); base += octree.FlatBatchWidth {
		w := octree.FlatBatchWidth
		if len(mb)-base < w {
			w = len(mb) - base
		}
		fb.N = w
		for lane := 0; lane < w; lane++ {
			br := mb[base+lane]
			fb.Pos[lane] = s.bodies.Local(t, br).Pos
			fb.Skip[lane] = sn.skipFor(br)
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

// buildLocalFlat is the native local-tree construction of the merged
// build (§5.4): gather the owned bodies into a scratch slice (costs
// clamped exactly as cofmLocalTree clamps them), Morton-sort and build
// the flat arena tree, then emit the cells into this thread's heap shard
// in one DFS pass — contiguous, cache-ordered, and bit-identical in
// structure and aggregates to what insertLocalTree+cofmLocalTree
// produce. Returns the local root's heap ref for the merge.
func (s *Sim) buildLocalFlat(t *upc.Thread, st *tstate, g rootGeom) upc.Ref {
	bs := st.lbodies[:0]
	for _, br := range st.myBodies {
		b := *s.bodies.Local(t, br)
		if b.Cost <= 0 {
			b.Cost = 1
		}
		bs = append(bs, b)
	}
	st.lbodies = bs

	ft := &st.lflat
	ft.RebuildWithRoot(bs, g.Center, g.Half)

	me := int32(t.ID())
	base := s.cells.Alloc(t, len(ft.Nodes))
	for i := range ft.Nodes {
		nd := &ft.Nodes[i]
		mt := &ft.Meta[i]
		ref := upc.Ref{Thr: me, Idx: base.Idx + int32(i)}
		cp := s.cells.Raw(ref)
		*cp = Cell{
			CofM: nd.CofM, Mass: nd.Mass, Half: mt.Half,
			Cost: mt.Cost, NSub: mt.N, Done: 1,
			Center: mt.Center,
		}
		for k := nd.First; k < nd.First+nd.Count; k++ {
			c := ft.Kids[k]
			oct := ft.KidOctant(int32(i), c)
			if c < 0 {
				// ft.Bodies.ID indexes st.lbodies, which parallels
				// st.myBodies.
				br := st.myBodies[ft.Bodies.ID[octree.FlatLeafBody(c)]]
				cp.Sub[oct] = BodyRef(br)
			} else {
				cp.Sub[oct] = CellRef(upc.Ref{Thr: me, Idx: base.Idx + c})
			}
		}
		st.myCells = append(st.myCells, ref)
	}
	return base
}
