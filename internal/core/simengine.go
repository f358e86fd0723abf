package core

import (
	"fmt"
	"math"
	"unsafe"

	"upcbh/internal/arena"
	"upcbh/internal/machine"
	"upcbh/internal/nbody"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// simEngine is the simulate backend (DESIGN.md §9): the paper's UPC
// program at every level, every shared access charged. It owns the body
// heap, the shared pointer tree — the cells heap, the hashed lock array,
// the UPC shared scalars (affinity: thread 0) — and each thread's
// pointer-path state. Its phases live in build_global.go,
// build_merged.go, subspace.go, force.go, force_async.go and verify.go.
type simEngine struct {
	o    Options
	par  machine.Params
	init []nbody.Body
	ts   []*simThread

	bodies *upc.Heap[nbody.Body]
	cells  *upc.Heap[Cell]
	locks  *upc.LockArray
	geomS  *upc.Scalar[rootGeom]
	tolS   *upc.Scalar[float64]
	epsS   *upc.Scalar[float64]
	rootS  *upc.Scalar[NodeRef]
}

// simThread is one thread's pointer-path state.
type simThread struct {
	*tstate

	// §5.2 double buffer in the thread's local shared space.
	buf    [2]upc.Ref
	bufCap int
	cur    int
	curLen int

	// mycelltab: cells created this step, in creation order.
	myCells []upc.Ref

	// Replicated scalars (§5.1; populated at every level, consulted at
	// LevelScalars and above).
	tol, eps float64
	root     NodeRef

	// Cached local tree for force computation (§5.3+).
	lroot *lnode

	// §8 transparent software caches (Options.TransparentCache).
	cellCache *upc.Cache[Cell]
	bodyCache *upc.Cache[nbody.Body]
	scalars   scalarCache

	// Subspace scratch (§6).
	sub *subspaceState

	// Iterative-walk and redistribution scratch, retained across steps
	// so steady-state stepping allocates nothing.
	nodeStack []NodeRef
	remote    remoteScratch

	// Local-tree arena and async-force object pools (force.go,
	// force_async.go), retained across steps: the §5.3+ local tree is
	// rebuilt every step, and per-lnode/per-request heap allocation
	// dominated the harness's GC load.
	lna         lnodeArena
	lnodeStack  []*lnode
	working     []*wbody
	outstanding []*request
	wbFree      []*wbody
	reqFree     []*request
}

// newSimEngine builds the heaps, locks and shared scalars for the Sim's
// final body count.
func newSimEngine(sim *Sim) *simEngine {
	o, rt := sim.o, sim.rt
	p := rt.Threads()
	s := &simEngine{o: o, par: o.Machine.Par, init: sim.init, ts: make([]*simThread, p)}
	for i, st := range sim.ts {
		s.ts[i] = &simThread{tstate: st}
	}
	bodyChunk := max(16*(o.Bodies/p+1), 4096) // buffers must fit one chunk (LocalSlice)
	s.bodies = upc.NewHeap[nbody.Body](rt, bodyChunk)
	s.cells = upc.NewHeap[Cell](rt, 1<<14)
	s.locks = rt.NewLockArray(2048)
	s.geomS = upc.NewScalar(rt, rootGeom{})
	s.tolS = upc.NewScalar(rt, o.Theta)
	s.epsS = upc.NewScalar(rt, o.Eps)
	s.rootS = upc.NewScalar(rt, NilNode)
	// Both heaps fully initialize every element before first read (cells
	// are whole-struct assigned at creation, bodies copied/gathered in),
	// so they can recycle chunk storage across simulations — the harness
	// builds one Sim per configuration, and per-Sim chunk zeroing was a
	// top allocation cost. See release.
	s.cells.SetRecycle()
	s.bodies.SetRecycle()
	return s
}

// release returns both heaps' chunks to the process-wide recycling pools.
func (s *simEngine) release() {
	s.bodies.Release()
	s.cells.Release()
}

// gather reads every owned body from the body heap.
func (s *simEngine) gather(out []nbody.Body, ids *idSet) error {
	for _, st := range s.ts {
		for _, br := range st.myBodies {
			b := s.bodies.Raw(br)
			if err := ids.claim(b.ID); err != nil {
				return err
			}
			out[b.ID] = *b
		}
	}
	return nil
}

// remoteScratch is one step's migration worklist in redistribute: the
// myBodies positions holding remote refs and the refs themselves, in
// matching order.
type remoteScratch struct {
	idx  []int
	refs []upc.Ref
}

// setup distributes bodies block-wise (the baseline bodytab layout),
// allocates the §5.2 double buffers, and replicates scalar parameters
// ("let every thread parse user's input", §5.1). Setup is outside the
// measured steps.
func (s *simEngine) setup(t *upc.Thread) {
	st := s.ts[t.ID()]
	me, p, n := t.ID(), t.P(), s.o.Bodies
	lo, hi := me*n/p, (me+1)*n/p
	cnt := hi - lo

	st.tol, st.eps = s.o.Theta, s.o.Eps

	capacity := cnt
	if s.o.Level >= LevelRedistribute {
		capacity = max(4*(n/p+1), 256)
		if s.o.testBufferCap > 0 {
			capacity = max(s.o.testBufferCap, cnt)
		}
	}
	capacity = max(capacity, 1)
	st.bufCap = capacity
	st.buf[0] = s.bodies.Alloc(t, capacity)
	if s.o.Level >= LevelRedistribute {
		st.buf[1] = s.bodies.Alloc(t, capacity)
	}
	dst := s.bodies.LocalSlice(t, st.buf[0], cnt)
	copy(dst, s.init[lo:hi])
	st.cur = 0
	st.curLen = cnt
	st.myBodies = st.myBodies[:0]
	for i := 0; i < cnt; i++ {
		st.myBodies = append(st.myBodies, upc.Ref{Thr: int32(me), Idx: st.buf[0].Idx + int32(i)})
	}

	if me == 0 {
		s.tolS.Write(t, s.o.Theta)
		s.epsS.Write(t, s.o.Eps)
	}
	if s.o.Level >= LevelSubspace {
		st.sub = newSubspaceState()
	}
	if s.o.TransparentCache && s.o.Level < LevelCacheTree {
		st.cellCache = upc.NewCache(t, s.cells, 4096)
		st.bodyCache = upc.NewCache(t, s.bodies, 4096)
	}
}

// prepare is the simulator's step up to the force phase: build, c-of-m,
// partition and redistribute on the shared pointer tree, as the level
// prescribes. It runs one thread at a time under the cooperative
// scheduler, and everything it reaches (buildGlobal, cofmGlobal,
// costzones, buildMerged, stepSubspace) may rely on that.
func (s *simEngine) prepare(t *upc.Thread, measured bool) (ph PhaseTimes) {
	st := s.ts[t.ID()]
	// Per-step reset of the shared tree storage.
	s.cells.Reset(t)
	st.myCells = st.myCells[:0]
	t.Barrier()

	switch {
	case s.o.Level >= LevelSubspace:
		s.stepSubspace(t, st, &ph, measured)
	case s.o.Level >= LevelMergedBuild:
		t0, s0 := beginPhase(t)
		s.buildMerged(t, st, measured)
		st.endPhase(t, &ph, PhaseTree, t0, s0, measured)
		t0, s0 = beginPhase(t)
		s.costzones(t, st)
		st.endPhase(t, &ph, PhasePartition, t0, s0, measured)
		t0, s0 = beginPhase(t)
		s.redistribute(t, st, measured)
		st.endPhase(t, &ph, PhaseRedist, t0, s0, measured)
	default:
		t0, s0 := beginPhase(t)
		s.buildGlobal(t, st)
		st.endPhase(t, &ph, PhaseTree, t0, s0, measured)
		t0, s0 = beginPhase(t)
		s.cofmGlobal(t, st)
		st.endPhase(t, &ph, PhaseCofM, t0, s0, measured)
		t0, s0 = beginPhase(t)
		s.costzones(t, st)
		st.endPhase(t, &ph, PhasePartition, t0, s0, measured)
		if s.o.Level >= LevelRedistribute {
			t0, s0 = beginPhase(t)
			s.redistribute(t, st, measured)
			st.endPhase(t, &ph, PhaseRedist, t0, s0, measured)
		}
	}

	if s.o.Verify {
		if t.ID() == 0 {
			s.verifyTree(t, st)
		}
		t.Barrier()
	}
	return ph
}

// scalarCache is the runtime cache for UPC shared scalars (MuPC supports
// exactly this, §8): one value per scalar, invalidated at barriers.
type scalarCache struct {
	gen                uint64
	tol, eps           float64
	geom               rootGeom
	root               NodeRef
	okT, okE, okG, okR bool
}

func (sc *scalarCache) epoch(t *upc.Thread) *scalarCache {
	if g := t.BarrierCount(); g != sc.gen {
		*sc = scalarCache{gen: g}
	}
	return sc
}

const scalarHitCost = 10e-9

// --- level-dependent parameter access -----------------------------------

func (s *simEngine) replicated() bool { return s.o.Level >= LevelScalars }

// readShared reads shared scalar sc below LevelScalars: through the
// transparent cache when it is on (slot val, valid flag ok; a hit is
// charged as a local access), else remotely.
func readShared[T any](s *simEngine, t *upc.Thread, sc *upc.Scalar[T], val *T, ok *bool) T {
	switch {
	case !s.o.TransparentCache:
		return sc.Read(t)
	case *ok:
		t.ChargeRaw(scalarHitCost)
	default:
		*val, *ok = sc.Read(t), true
	}
	return *val
}

func (s *simEngine) readTol(t *upc.Thread, st *simThread) float64 {
	if s.replicated() {
		return st.tol
	}
	sc := st.scalars.epoch(t)
	return readShared(s, t, s.tolS, &sc.tol, &sc.okT)
}

func (s *simEngine) readEps(t *upc.Thread, st *simThread) float64 {
	if s.replicated() {
		return st.eps
	}
	sc := st.scalars.epoch(t)
	return readShared(s, t, s.epsS, &sc.eps, &sc.okE)
}

func (s *simEngine) readGeom(t *upc.Thread, st *simThread) rootGeom {
	if s.replicated() {
		return st.geom
	}
	sc := st.scalars.epoch(t)
	return readShared(s, t, s.geomS, &sc.geom, &sc.okG)
}

func (s *simEngine) readRoot(t *upc.Thread, st *simThread) NodeRef {
	if s.replicated() {
		return st.root
	}
	sc := st.scalars.epoch(t)
	return readShared(s, t, s.rootS, &sc.root, &sc.okR)
}

// bodyPos reads a body's position: through the shared pointer (charged)
// below LevelRedistribute; through a cast local pointer at and above it
// when the body is local.
func (s *simEngine) bodyPos(t *upc.Thread, st *simThread, r upc.Ref) vec.V3 {
	if s.o.Level >= LevelRedistribute && s.bodies.IsLocal(t, r) {
		return s.bodies.Local(t, r).Pos
	}
	return s.bodies.ReadView(t, r, bytesBodyPos).Pos
}

// newCell allocates and initializes a cell in the caller's shard.
func (s *simEngine) newCell(t *upc.Thread, st *simThread, center vec.V3, half float64) upc.Ref {
	r := s.cells.Alloc(t, 1)
	t.Charge(s.par.CellInitCost)
	c := s.cells.Raw(r)
	*c = Cell{Center: center, Half: half}
	st.myCells = append(st.myCells, r)
	return r
}

// capture writes the body heap (each shard's allocated elements, in
// thread order), the owned-body refs, the lock horizon, the shared
// scalars and each thread's buffers and replicated scalars.
func (s *simEngine) capture(cs *ckptState) []arena.NamedRegion {
	cs.Locks = s.locks.CaptureAvail()
	cs.TolS = s.tolS.Peek()
	cs.EpsS = s.epsS.Peek()
	cs.GeomS = s.geomS.Peek()
	cs.RootS = s.rootS.Peek()
	cs.HeapLens = make([]int32, len(s.ts))
	var heap, refs []byte
	for i, st := range s.ts {
		cs.HeapLens[i] = int32(s.bodies.Len(i))
		heap = s.bodies.CaptureShard(i, heap)
		refs = appendRefBytes(refs, st.myBodies)
		tc := &cs.Threads[i]
		tc.Buf, tc.BufCap, tc.Cur, tc.CurLen = st.buf, st.bufCap, st.cur, st.curLen
		tc.Tol, tc.Eps, tc.Root = st.tol, st.eps, st.root
	}
	return []arena.NamedRegion{{Name: regHeap, Data: heap}, {Name: regRefs, Data: refs}}
}

// restore reads capture's state back. The fresh setup's heap layout is
// the checkpointed run's setup-time layout; shards the run grew past it
// are extended first, then every mutable byte is replaced.
func (s *simEngine) restore(cs *ckptState, c *arena.Checkpoint) error {
	p := len(s.ts)
	heap, okHeap := c.Region(regHeap)
	refs, okRefs := c.Region(regRefs)
	if !okHeap || !okRefs {
		return fmt.Errorf("core: checkpoint lacks its %q or %q region", regHeap, regRefs)
	}
	if len(cs.HeapLens) != p {
		return fmt.Errorf("core: checkpoint carries %d heap shards for a %d-thread machine", len(cs.HeapLens), p)
	}
	if err := s.locks.RestoreAvail(cs.Locks); err != nil {
		return err
	}
	s.tolS.Poke(cs.TolS)
	s.epsS.Poke(cs.EpsS)
	s.geomS.Poke(cs.GeomS)
	s.rootS.Poke(cs.RootS)

	var heapOff, refsOff int
	for i, st := range s.ts {
		tc := &cs.Threads[i]
		st.tol, st.eps, st.root = tc.Tol, tc.Eps, tc.Root
		n := int(cs.HeapLens[i])
		if cur := s.bodies.Len(i); cur > n {
			return fmt.Errorf("core: checkpoint shard %d holds %d bodies but fresh setup allocated %d — incompatible layout", i, n, cur)
		}
		if err := s.bodies.GrowShard(i, cs.HeapLens[i]); err != nil {
			return err
		}
		nb := n * bodyBytes
		if heapOff+nb > len(heap) {
			return fmt.Errorf("core: checkpoint heap region truncated (shard %d needs %d bytes, %d left)", i, nb, len(heap)-heapOff)
		}
		if err := s.bodies.RestoreShard(i, heap[heapOff:heapOff+nb]); err != nil {
			return err
		}
		heapOff += nb

		if tc.NOwned < 0 || tc.NOwned > (len(refs)-refsOff)/refBytes {
			return fmt.Errorf("core: checkpoint refs region truncated (thread %d owns %d bodies)", i, tc.NOwned)
		}
		st.myBodies = st.myBodies[:0]
		for j := 0; j < tc.NOwned; j++ {
			r := *(*upc.Ref)(unsafe.Pointer(&refs[refsOff+j*refBytes]))
			if int(r.Thr) < 0 || int(r.Thr) >= p || r.Idx < 0 || r.Idx >= cs.HeapLens[r.Thr] {
				return fmt.Errorf("core: checkpoint body ref %v out of range", r)
			}
			st.myBodies = append(st.myBodies, r)
		}
		refsOff += tc.NOwned * refBytes

		// The double-buffer geometry is dereferenced unchecked on the
		// hot path (redistribute LocalSlices up to bufCap elements at
		// st.buf[st.cur]), so a CRC-valid but crafted container must
		// not get out-of-range values past this point: a buffer ref
		// must be local to its thread, lie within the restored shard,
		// and fit one allocation chunk (the LocalSlice precondition
		// every genuine Alloc satisfies).
		if tc.Cur != 0 && tc.Cur != 1 {
			return fmt.Errorf("core: checkpoint thread %d current-buffer index %d (want 0 or 1)", i, tc.Cur)
		}
		if tc.BufCap < 1 || tc.CurLen < 0 || tc.CurLen > tc.BufCap {
			return fmt.Errorf("core: checkpoint thread %d buffer occupancy %d of capacity %d out of range", i, tc.CurLen, tc.BufCap)
		}
		bufOK := func(r upc.Ref) bool {
			return int(r.Thr) == i && r.Idx >= 0 &&
				int64(r.Idx)+int64(tc.BufCap) <= int64(cs.HeapLens[i]) &&
				s.bodies.OneChunk(r.Idx, tc.BufCap)
		}
		if !bufOK(tc.Buf[tc.Cur]) {
			return fmt.Errorf("core: checkpoint thread %d current buffer %v (capacity %d) out of range", i, tc.Buf[tc.Cur], tc.BufCap)
		}
		if s.o.Level >= LevelRedistribute {
			if !bufOK(tc.Buf[1-tc.Cur]) {
				return fmt.Errorf("core: checkpoint thread %d alternate buffer %v (capacity %d) out of range", i, tc.Buf[1-tc.Cur], tc.BufCap)
			}
		} else if tc.Cur != 0 || tc.Buf[1] != (upc.Ref{}) {
			// Below LevelRedistribute nothing ever allocates or swaps
			// to the alternate buffer; only the setup-time state is
			// genuine.
			return fmt.Errorf("core: checkpoint thread %d carries an alternate buffer %v at level %v", i, tc.Buf[1], s.o.Level)
		}

		st.buf, st.bufCap, st.cur, st.curLen = tc.Buf, tc.BufCap, tc.Cur, tc.CurLen
	}
	if heapOff != len(heap) {
		return fmt.Errorf("core: checkpoint heap region has %d trailing bytes", len(heap)-heapOff)
	}
	if refsOff != len(refs) {
		return fmt.Errorf("core: checkpoint refs region has %d trailing bytes", len(refs)-refsOff)
	}
	return nil
}

// boundingBox computes the new root geometry: a local pass over owned
// bodies and a min/max reduction of the threads' boxes, two in-place
// vector all-reduces of st.bbLo/st.bbHi. At LevelBaseline thread 0
// publishes it to the shared scalar; above, every thread keeps the
// replicated copy.
func (s *simEngine) boundingBox(t *upc.Thread, st *simThread) rootGeom {
	lo := vec.V3{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi := lo.Scale(-1)
	for _, br := range st.myBodies {
		pos := s.bodyPos(t, st, br)
		lo = lo.Min(pos)
		hi = hi.Max(pos)
		t.Charge(s.par.LocalDerefCost)
	}
	st.bbLo = [3]float64{lo.X, lo.Y, lo.Z}
	st.bbHi = [3]float64{hi.X, hi.Y, hi.Z}
	upc.AllReduceVecF64(t, st.bbLo[:], upc.OpMin)
	upc.AllReduceVecF64(t, st.bbHi[:], upc.OpMax)
	lo = vec.V3{X: st.bbLo[0], Y: st.bbLo[1], Z: st.bbLo[2]}
	hi = vec.V3{X: st.bbHi[0], Y: st.bbHi[1], Z: st.bbHi[2]}
	center, half := nbody.RootCell(lo, hi)
	g := rootGeom{Center: center, Half: half}
	st.geom = g
	if !s.replicated() {
		if t.ID() == 0 {
			s.geomS.Write(t, g)
		}
		t.Barrier()
	}
	return g
}
