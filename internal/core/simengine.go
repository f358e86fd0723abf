package core

import (
	"fmt"
	"math"
	"slices"

	"upcbh/internal/arena"
	"upcbh/internal/machine"
	"upcbh/internal/nbody"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// simEngine is the simulate backend (DESIGN.md §9): the paper's UPC
// program at every level, every shared access charged. Its threads are a
// upc.Runtime session. It owns the body heap, the shared pointer tree —
// the cells heap, the hashed lock array, the UPC shared scalars
// (affinity: thread 0) — and each thread's pointer-path state. Its
// phases live in build_global.go, build_merged.go, subspace.go,
// force.go, force_async.go and verify.go.
type simEngine struct {
	sim  *Sim
	rt   *upc.Runtime
	sess *upc.Session

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

	// frozen is frozenHash at the tree barrier (Options.Verify only).
	frozen uint64

	// plane runs the cached levels' force walks (force.go).
	plane forcePlane
}

// simThread is one thread's pointer-path state.
type simThread struct {
	*tstate
	id int32

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

	// The cached levels' force walk, recorded (force.go), retained across
	// steps.
	ledger upc.Ledger
}

// newSimEngine builds the runtime, heaps, locks and shared scalars for
// the Sim's final body count.
func newSimEngine(sim *Sim) *simEngine {
	o := sim.o
	rt := upc.NewRuntime(o.Machine)
	p := rt.Threads()
	s := &simEngine{sim: sim, rt: rt, o: o, par: o.Machine.Par, init: sim.init, ts: make([]*simThread, p)}
	for i, st := range sim.ts {
		s.ts[i] = &simThread{tstate: st, id: int32(i)}
	}
	s.plane.init(p, s.walkLedger)
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

// start launches the SPMD session: every thread runs setup and parks at
// its first step boundary.
func (s *simEngine) start() { s.sess = s.rt.Start(s.threadMain) }

// threadMain is the session body: setup, then one stepOnce per granted
// step. The NextStep gate sits between step k's trailing bookkeeping
// (stats record, test hook) and step k+1's shared tree reset — both
// thread-local, so parking there perturbs no cross-thread coupling and
// the stepped schedule is the uninterrupted one (see upc.Session).
func (s *simEngine) threadMain(t *upc.Thread) {
	st := s.ts[t.ID()]
	s.setup(t)
	t.Barrier()
	for t.NextStep() {
		stepOnce(s.sim, s, t, st.tstate)
	}
}

func (s *simEngine) resume(k int)        { s.sess.Resume(k) }
func (s *simEngine) finish()             { s.sess.Finish() }
func (s *simEngine) clock(i int) float64 { return s.rt.ThreadNow(i) }

func (s *simEngine) counters() (upc.Stats, upc.SchedStats) {
	return s.rt.TotalStats(), s.rt.SchedStats()
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
			s.frozen = s.frozenHash()
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

// capture writes each thread's owned bodies and their refs (the
// "bodies" and "refs" regions), the runtime state, the body shards'
// allocated lengths, the lock horizon, the shared scalars and each
// thread's buffers and replicated scalars. No other heap slot travels:
// the container is this session's bodies, whatever the rest of a shard
// holds.
func (s *simEngine) capture(cs *ckptState, sc *captureScratch) []arena.NamedRegion {
	cs.Runtime = s.rt.CaptureState()
	cs.Locks = s.locks.CaptureAvail()
	cs.TolS = s.tolS.Peek()
	cs.EpsS = s.epsS.Peek()
	cs.GeomS = s.geomS.Peek()
	cs.RootS = s.rootS.Peek()
	cs.HeapLens = make([]int32, len(s.ts))
	bodies := slices.Grow(sc.bodies[:0], s.o.Bodies)
	refs := slices.Grow(sc.refs[:0], s.o.Bodies*refBytes)
	for i, st := range s.ts {
		cs.HeapLens[i] = int32(s.bodies.Len(i))
		for _, r := range st.myBodies {
			bodies = append(bodies, *s.bodies.Raw(r))
		}
		refs = appendRefBytes(refs, st.myBodies)
		tc := &cs.Threads[i]
		tc.Buf, tc.BufCap, tc.Cur, tc.CurLen = st.buf, st.bufCap, st.cur, st.curLen
		tc.Tol, tc.Eps, tc.Root = st.tol, st.eps, st.root
	}
	sc.bodies, sc.refs = bodies, refs
	return []arena.NamedRegion{{Name: regBodies, Data: bodyRecordBytes(bodies)}, {Name: regRefs, Data: refs}}
}

// restore reads capture's state back, the runtime's first. The fresh
// setup's heap layout is the checkpointed run's setup-time layout;
// shards the run grew past it are extended first, then each owned body
// is written at its ref. No other slot is read before a step writes it
// (DESIGN §12.3), so none is filled.
func (s *simEngine) restore(cs *ckptState, c *arena.Checkpoint, bodies []nbody.Body) error {
	if err := s.rt.RestoreState(cs.Runtime); err != nil {
		return err
	}
	p := len(s.ts)
	refs, _ := c.Region(regRefs)
	if len(refs) != len(bodies)*refBytes {
		return fmt.Errorf("core: checkpoint refs region holds %d bytes, want %d records of %d", len(refs), len(bodies), refBytes)
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

	for i, n := range cs.HeapLens {
		if cur := s.bodies.Len(i); cur > int(n) {
			return fmt.Errorf("core: checkpoint shard %d holds %d bodies but fresh setup allocated %d — incompatible layout", i, n, cur)
		}
		if err := s.bodies.GrowShard(i, n); err != nil {
			return err
		}
	}
	j := 0
	for i, st := range s.ts {
		tc := &cs.Threads[i]
		st.tol, st.eps, st.root = tc.Tol, tc.Eps, tc.Root
		st.myBodies = st.myBodies[:0]
		for range tc.NOwned {
			r := refAt(refs, j)
			if r.Thr < 0 || int(r.Thr) >= p || r.Idx < 0 || r.Idx >= cs.HeapLens[r.Thr] {
				return fmt.Errorf("core: checkpoint body ref %v out of range", r)
			}
			*s.bodies.Raw(r) = bodies[j]
			st.myBodies = append(st.myBodies, r)
			j++
		}

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
	// The bodies' IDs are distinct, so two refs naming one slot show as
	// one ID read back twice.
	ids := newIDSet(len(bodies))
	for _, st := range s.ts {
		for _, r := range st.myBodies {
			if err := ids.claim(s.bodies.Raw(r).ID); err != nil {
				return err
			}
		}
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
