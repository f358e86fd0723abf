package core

import (
	"errors"
	"fmt"
	"math"

	"upcbh/internal/arena"
	"upcbh/internal/machine"
	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// Lifecycle sentinel errors. Every lifecycle failure returned by Run,
// Step, Finish and Snapshot wraps one of these, so callers that drive a
// Sim on behalf of someone else (the bhserve session service) can map
// them with errors.Is — a finished or over-scheduled session is the
// caller's mistake (HTTP 409/400), not a server fault — without matching
// on message text.
var (
	// ErrFinished: the session has finished; no further Run/Step/Finish.
	ErrFinished = errors.New("session finished")
	// ErrReleased: the heap storage has been recycled; only Release
	// (a no-op) remains legal.
	ErrReleased = errors.New("session released")
	// ErrSchedule: a Step(k) would take the simulation past the
	// configured Options.Steps.
	ErrSchedule = errors.New("step exceeds the configured schedule")
	// ErrBadCheckpoint: Restore rejected the checkpoint container itself
	// (corrupt, truncated, mismatched, or carrying out-of-range state) —
	// the uploader's fault (HTTP 400), as opposed to a server-side
	// construction failure while rebuilding the simulation (500).
	ErrBadCheckpoint = errors.New("invalid checkpoint")
	// ErrInvalidOptions: New rejected the configuration itself — the
	// requester's fault (HTTP 400), not a construction failure.
	ErrInvalidOptions = errors.New("invalid options")
)

// marked tags err with a sentinel for errors.Is without altering its
// text: the message stays the specific validation failure.
type marked struct{ sentinel, err error }

func (e *marked) Error() string   { return e.err.Error() }
func (e *marked) Unwrap() []error { return []error{e.sentinel, e.err} }

// rootGeom is the root-cell geometry (SPLASH2's rsize plus center); at
// LevelBaseline it lives in a UPC shared scalar on thread 0 and is read
// remotely by every insertion, which is the §5.1 pathology.
type rootGeom struct {
	Center vec.V3
	Half   float64
}

// remoteScratch is one step's migration worklist in redistribute: the
// myBodies positions holding remote refs and the refs themselves, in
// matching order.
type remoteScratch struct {
	idx  []int
	refs []upc.Ref
}

// simState is the lifecycle of a Sim (see the state machine in
// DESIGN.md §11):
//
//	simNew ──start──▶ simPaused ──Finish/Run──▶ simFinished ──Release──▶ simReleased
//
// simNew: configured, no threads launched; SetBodies is still legal.
// simPaused: a session is active and every thread is parked at a step
// boundary; Step, Snapshot, Run, Finish and Release are legal.
// simFinished: the threads have exited and the Result was collected;
// Snapshot remains legal (the body state is kept until Release).
// simReleased: heap storage recycled; only Release (a no-op) is legal.
type simState int

const (
	simNew simState = iota
	simPaused
	simFinished
	simReleased
)

// Sim is one configured Barnes-Hut simulation over the emulated UPC
// runtime. Create with New, then either execute to completion with Run,
// or drive it incrementally: Step(k) advances every thread k time-steps
// and pauses at the step boundary, Snapshot copies out the state of the
// paused simulation, Finish collects the Result, Release recycles the
// heap storage. Run is itself implemented as Step(all)+Finish, so the
// two styles are interchangeable — and byte-identical under the
// simulate backend (see upc.Session on scheduling transparency).
type Sim struct {
	o   Options
	rt  *upc.Runtime
	par machine.Params

	sess      *upc.Session
	state     simState
	stepsDone int

	// The simulator's body heap and shared pointer tree — the cells heap,
	// the hashed lock array and the UPC shared scalars (affinity: thread
	// 0). Nil under ModeNative, whose bodies live in the flat tree.
	bodies *upc.Heap[nbody.Body]
	cells  *upc.Heap[Cell]
	locks  *upc.LockArray
	geomS  *upc.Scalar[rootGeom]
	tolS   *upc.Scalar[float64]
	epsS   *upc.Scalar[float64]
	rootS  *upc.Scalar[NodeRef]

	// flat is the step's flat octree and its parallel builder (see
	// flatnative.go). New sets it exactly under ModeNative — which
	// Options.validate admits from LevelCacheTree up only — and it is the
	// one thing the rest of the package tests: flat != nil selects the
	// native flat path, flat == nil the simulator's pointer tree.
	flat *flatTree

	// mem backs the flat tree's shared arrays and the body columns with
	// off-heap (mmap) memory; tmem[i] backs thread i's builder segment.
	// Arenas are single-owner bump allocators, so the shared one
	// is touched only by thread 0 (and by start, before any thread runs)
	// and each tmem[i] only by its thread. Nil under ModeSimulate or when
	// mmap is unavailable — growth then falls back to the Go heap.
	mem  *arena.Arena
	tmem []*arena.Arena

	init []nbody.Body
	ts   []*tstate

	// stepTab is the step-phase table snapshots and collect read.
	stepTab phaseTable
}

// tstate is the thread-private state of one UPC thread (the "private
// area" of the UPC memory model).
type tstate struct {
	id int

	// step is this thread's time-step counter, advanced once per
	// granted session step. Threads never read each other's counters;
	// at a session pause they all agree.
	step int

	// mybodytab: global refs of the bodies this thread currently owns;
	// under ModeNative, tree slot slotLo+i's body ID and its last
	// advancer (flatnative.go ids).
	myBodies []upc.Ref

	// §5.2 double buffer in the thread's local shared space (simulate).
	buf    [2]upc.Ref
	bufCap int
	cur    int
	curLen int

	// mycelltab: cells created this step, in creation order.
	myCells []upc.Ref

	// Replicated scalars (§5.1; populated at every level, consulted at
	// LevelScalars and above).
	tol, eps float64
	geom     rootGeom
	root     NodeRef

	// Cached local tree for force computation (§5.3+).
	lroot *lnode

	// §8 transparent software caches (Options.TransparentCache).
	cellCache *upc.Cache[Cell]
	bodyCache *upc.Cache[nbody.Body]
	scalars   scalarCache

	// Subspace scratch (§6).
	sub *subspaceState

	// Native flat-path state (flatnative.go): the per-thread walker, and
	// the flat-tree slot of myBodies[0] — this step's owned bodies are
	// slots slotLo, slotLo+1, … in myBodies order.
	fwalker octree.FlatWalker
	slotLo  int

	// Iterative-walk and redistribution scratch, retained across steps
	// so steady-state stepping allocates nothing.
	nodeStack  []NodeRef
	remote     remoteScratch
	bbLo, bbHi [3]float64

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

	// Counters (accumulated over measured steps).
	inter        uint64
	migrated     int
	ownedTot     int
	bufCopies    int
	cellsCopied  uint64
	cellsAliased uint64
	treeLocalT   float64
	treeMergeT   float64

	phases    PhaseTimes
	stepPh    []PhaseTimes
	phaseComm [NumPhases]upc.Stats // per-phase operation deltas (measured steps)
}

// New builds a simulation: generates the initial conditions from the
// configured scenario (Plummer by default) and sets up the runtime, then
// what the backend needs — arenas for the native flat tree, which holds
// the bodies; the body heap, cells heap, locks and shared scalars for the
// simulator.
func New(opts Options) (*Sim, error) {
	if err := opts.validate(); err != nil {
		return nil, &marked{ErrInvalidOptions, err}
	}
	init, err := nbody.GenerateScenario(opts.Scenario, opts.Bodies, opts.Seed)
	if err != nil {
		return nil, err
	}
	rt := upc.NewRuntimeMode(opts.Machine, opts.ExecMode)
	p := rt.Threads()
	s := &Sim{
		o:       opts,
		rt:      rt,
		par:     opts.Machine.Par,
		init:    init,
		ts:      make([]*tstate, p),
		stepTab: phaseTable{text: new(phaseText)},
	}
	for i := range s.ts {
		s.ts[i] = &tstate{id: i}
	}
	if opts.ExecMode == ModeNative {
		// The direct flat-tree path (flatnative.go) keeps its bodies in
		// the tree: no body heap, cells heap, cell locks or shared scalars.
		s.flat = &flatTree{}
		// Arenas are sized from the body count with room for the
		// doubling-growth dead space; anonymous mappings commit pages
		// lazily, so over-reserving virtual space costs nothing. A
		// failed mmap leaves the arenas nil and growth on the Go heap.
		if a, err := arena.New(2048*opts.Bodies + 8<<20); err == nil {
			s.mem = a
		}
		s.tmem = make([]*arena.Arena, p)
		for i := range s.ts {
			if a, err := arena.New(1024*(opts.Bodies/p+1) + 1<<20); err == nil {
				s.tmem[i] = a
			}
		}
		return s, nil
	}
	bodyChunk := 16 * (opts.Bodies/p + 1) // buffers must fit one chunk (LocalSlice)
	if bodyChunk < 4096 {
		bodyChunk = 4096
	}
	s.bodies = upc.NewHeap[nbody.Body](rt, bodyChunk)
	s.cells = upc.NewHeap[Cell](rt, 1<<14)
	s.locks = rt.NewLockArray(2048)
	s.geomS = upc.NewScalar(rt, rootGeom{})
	s.tolS = upc.NewScalar(rt, opts.Theta)
	s.epsS = upc.NewScalar(rt, opts.Eps)
	s.rootS = upc.NewScalar(rt, NilNode)
	// Both heaps fully initialize every element before first read (cells
	// are whole-struct assigned at creation, bodies copied/gathered in),
	// so they can recycle chunk storage across simulations — the harness
	// builds one Sim per configuration, and per-Sim chunk zeroing was a
	// top allocation cost. See Release.
	s.cells.SetRecycle()
	s.bodies.SetRecycle()
	return s, nil
}

// SetBodies replaces the generated initial conditions. It must be
// called before the session starts (before the first Run, Step or
// Snapshot): setup copies the initial conditions into the body state,
// so a later replacement would silently not take effect — panic
// instead.
func (s *Sim) SetBodies(bodies []nbody.Body) {
	if s.state != simNew {
		panic("core: SetBodies after the session has started (call it before Run/Step/Snapshot)")
	}
	if len(bodies) < 2 {
		panic("core: SetBodies needs at least 2 bodies")
	}
	s.init = make([]nbody.Body, len(bodies))
	copy(s.init, bodies)
	for i := range s.init {
		s.init[i].ID = int32(i)
		if s.init[i].Cost <= 0 {
			s.init[i].Cost = 1
		}
	}
	s.o.Bodies = len(bodies)
}

// Options returns the configuration of the simulation.
func (s *Sim) Options() Options { return s.o }

// start launches the SPMD session: every thread runs setup and parks at
// its first step boundary. A setup-time thread panic propagates, as it
// did under the old run-to-completion Run.
func (s *Sim) start() {
	if s.flat != nil {
		s.initFlatTree()
	}
	s.sess = s.rt.Start(s.threadMain)
	s.state = simPaused
}

// Run executes the remaining time-steps on all emulated threads and
// returns the collected result. On a fresh Sim that is the configured
// Options.Steps; on a partially-stepped Sim it completes the schedule.
// Run is Step(remaining)+Finish, so mixing the two styles is safe.
func (s *Sim) Run() (*Result, error) {
	switch s.state {
	case simFinished:
		return nil, fmt.Errorf("core: Run on a finished Sim: %w", ErrFinished)
	case simReleased:
		return nil, fmt.Errorf("core: Run on a released Sim: %w", ErrReleased)
	}
	if remaining := s.o.Steps - s.stepsDone; remaining > 0 {
		if err := s.Step(remaining); err != nil {
			return nil, err
		}
	}
	return s.Finish()
}

// Step advances the simulation k time-steps on every thread and pauses
// at the step boundary, starting the session if needed. While paused
// the runtime is quiescent: Snapshot (and any other read of simulation
// state) is safe. k must be positive and may not take the simulation
// past Options.Steps — the per-thread phase buffers are sized for
// exactly that many. A thread panic (runtime poison) propagates as a
// panic, exactly as under Run.
func (s *Sim) Step(k int) error {
	if k <= 0 {
		return fmt.Errorf("core: Step needs k > 0, got %d", k)
	}
	switch s.state {
	case simFinished:
		return fmt.Errorf("core: Step on a finished Sim: %w", ErrFinished)
	case simReleased:
		return fmt.Errorf("core: Step on a released Sim: %w", ErrReleased)
	}
	if s.stepsDone+k > s.o.Steps {
		return fmt.Errorf("core: Step(%d) would exceed the configured %d steps (%d already done): %w",
			k, s.o.Steps, s.stepsDone, ErrSchedule)
	}
	if s.state == simNew {
		s.start()
	}
	s.sess.Resume(k)
	s.stepsDone += k
	return nil
}

// StepsDone returns the number of time-steps completed so far.
func (s *Sim) StepsDone() int { return s.stepsDone }

// Finish ends the session — every thread falls out of its step loop and
// exits — and collects the Result from however many steps have run
// (finishing before Options.Steps is legal; the Result then covers the
// measured steps completed so far). Finish does not release heap
// storage: Snapshot stays legal until Release.
func (s *Sim) Finish() (*Result, error) {
	switch s.state {
	case simNew:
		s.start()
	case simPaused:
	case simFinished:
		return nil, fmt.Errorf("core: Finish on a finished Sim: %w", ErrFinished)
	case simReleased:
		return nil, fmt.Errorf("core: Finish on a released Sim: %w", ErrReleased)
	}
	s.sess.Finish()
	s.state = simFinished
	return s.collect()
}

// Release returns the simulation's heap storage to the process-wide
// recycling pools. Call it after the last use of the Sim; collected
// Results and Snapshots are unaffected (they copy all body state out).
// Release is idempotent — a second call is a no-op, not a double return
// of the same chunks to the pools — and it terminates a still-paused
// session first, so a stepped Sim can be abandoned without Finish.
func (s *Sim) Release() {
	switch s.state {
	case simReleased:
		return
	case simPaused:
		s.sess.Finish()
	}
	s.state = simReleased
	if s.flat == nil {
		s.bodies.Release()
		s.cells.Release()
	}
	// Unmap the flat-tree arenas after the threads have exited; any
	// slice into them (the flat tree, builder segments) is dead now.
	s.mem.Close()
	for _, a := range s.tmem {
		a.Close()
	}
}

// beginPhase/endPhase bracket one phase: wall/simulated time and the
// operation-counter delta, then the phase barrier. They are plain
// methods (not closures) so the steady-state step loop allocates
// nothing; the measurement sequence is identical to the pre-refactor
// closure (time read before the counter delta, barrier last), which the
// simulate goldens pin.
func (s *Sim) beginPhase(t *upc.Thread) (float64, upc.Stats) {
	return t.Now(), t.Stats()
}

func (s *Sim) endPhase(t *upc.Thread, st *tstate, ph *PhaseTimes, p Phase, t0 float64, s0 upc.Stats, measured bool) {
	s.endPhaseFlow(t, st, ph, p, t0, s0, measured)
	t.Barrier()
}

// endPhaseFlow is endPhase without the closing barrier: the phase's time
// and operation delta are recorded, but the thread flows straight into
// the next phase. Used by the native flat path (stepFlat), where nothing
// after the tree barrier reads another thread's writes until the force
// barrier.
func (s *Sim) endPhaseFlow(t *upc.Thread, st *tstate, ph *PhaseTimes, p Phase, t0 float64, s0 upc.Stats, measured bool) {
	ph[p] += t.Now() - t0
	if measured {
		st.phaseComm[p].Add(t.Stats().Delta(s0))
	}
}

// threadMain is the SPMD session body: per-thread setup, then one
// stepOnce per granted step. The NextStep gate sits between step k's
// trailing bookkeeping (stats record, test hook) and step k+1's shared
// tree reset — both thread-local, so parking there perturbs no
// cross-thread coupling and the stepped schedule is the uninterrupted
// one (see upc.Session).
func (s *Sim) threadMain(t *upc.Thread) {
	st := s.ts[t.ID()]
	s.setup(t, st)
	t.Barrier()
	for t.NextStep() {
		s.stepOnce(t, st, st.step)
		st.step++
	}
}

// stepOnce runs one full time-step on one thread: tree build,
// partition, redistribution, force and advance, with per-phase timing.
func (s *Sim) stepOnce(t *upc.Thread, st *tstate, step int) {
	measured := step >= s.o.Warmup
	var ph PhaseTimes
	if s.flat != nil {
		s.stepFlat(t, st, &ph, measured)
	} else {
		s.stepPointer(t, st, &ph, measured)
	}

	t0, s0 := s.beginPhase(t)
	s.force(t, st, measured)
	s.endPhase(t, st, &ph, PhaseForce, t0, s0, measured)
	t0, s0 = s.beginPhase(t)
	s.advance(t, st)
	s.endPhase(t, st, &ph, PhaseAdvance, t0, s0, measured)

	if measured {
		st.phases.Add(ph)
		st.stepPh = append(st.stepPh, ph)
	}
	if s.o.testStepHook != nil {
		s.o.testStepHook(t, step)
	}
}

// stepPointer is the simulator's arm of stepOnce up to the force phase:
// build, c-of-m, partition and redistribute on the shared pointer tree,
// as the level prescribes. Simulate only — it runs one thread at a time
// under the cooperative scheduler, and everything it reaches
// (buildGlobal, cofmGlobal, costzones, buildMerged, stepSubspace) may
// rely on that.
func (s *Sim) stepPointer(t *upc.Thread, st *tstate, ph *PhaseTimes, measured bool) {
	// Per-step reset of the shared tree storage.
	s.cells.Reset(t)
	st.myCells = st.myCells[:0]
	t.Barrier()

	switch {
	case s.o.Level >= LevelSubspace:
		s.stepSubspace(t, st, ph, measured)
	case s.o.Level >= LevelMergedBuild:
		t0, s0 := s.beginPhase(t)
		s.buildMerged(t, st, measured)
		s.endPhase(t, st, ph, PhaseTree, t0, s0, measured)
		t0, s0 = s.beginPhase(t)
		s.costzones(t, st)
		s.endPhase(t, st, ph, PhasePartition, t0, s0, measured)
		t0, s0 = s.beginPhase(t)
		s.redistribute(t, st, measured)
		s.endPhase(t, st, ph, PhaseRedist, t0, s0, measured)
	default:
		t0, s0 := s.beginPhase(t)
		s.buildGlobal(t, st)
		s.endPhase(t, st, ph, PhaseTree, t0, s0, measured)
		t0, s0 = s.beginPhase(t)
		s.cofmGlobal(t, st)
		s.endPhase(t, st, ph, PhaseCofM, t0, s0, measured)
		t0, s0 = s.beginPhase(t)
		s.costzones(t, st)
		s.endPhase(t, st, ph, PhasePartition, t0, s0, measured)
		if s.o.Level >= LevelRedistribute {
			t0, s0 = s.beginPhase(t)
			s.redistribute(t, st, measured)
			s.endPhase(t, st, ph, PhaseRedist, t0, s0, measured)
		}
	}

	if s.o.Verify {
		if t.ID() == 0 {
			s.verifyTree(t, st)
		}
		t.Barrier()
	}
}

// setup distributes bodies block-wise (the baseline bodytab layout),
// allocates the §5.2 double buffers, and replicates scalar parameters
// ("let every thread parse user's input", §5.1). Setup is outside the
// measured steps.
func (s *Sim) setup(t *upc.Thread, st *tstate) {
	me, p, n := t.ID(), t.P(), s.o.Bodies
	lo, hi := me*n/p, (me+1)*n/p
	cnt := hi - lo

	st.tol = s.o.Theta
	st.eps = s.o.Eps
	if st.stepPh == nil {
		st.stepPh = make([]PhaseTimes, 0, s.o.Steps-s.o.Warmup)
	}
	if s.flat != nil {
		st.slotLo = lo
		st.myBodies = st.myBodies[:0]
		for j := lo; j < hi; j++ {
			s.flat.setBody(j, &s.init[j])
			st.myBodies = append(st.myBodies, upc.Ref{Thr: int32(me), Idx: s.init[j].ID})
		}
		return
	}

	capacity := cnt
	if s.o.Level >= LevelRedistribute {
		capacity = 4 * (n/p + 1)
		if capacity < 256 {
			capacity = 256
		}
		if s.o.testBufferCap > 0 {
			capacity = s.o.testBufferCap
			if capacity < cnt {
				capacity = cnt
			}
		}
	}
	if capacity < 1 {
		capacity = 1
	}
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

	// The rest is the pointer tree's: the shared scalars, the subspace
	// scratch, and the transparent caches where forceNaive reads them.
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

func (s *Sim) cachedScalarF(t *upc.Thread, st *tstate, sc *upc.Scalar[float64], val *float64, ok *bool) float64 {
	if !*ok {
		*val = sc.Read(t)
		*ok = true
	} else {
		t.ChargeRaw(scalarHitCost)
	}
	return *val
}

// --- level-dependent parameter access -----------------------------------

func (s *Sim) replicated() bool { return s.o.Level >= LevelScalars }

func (s *Sim) readTol(t *upc.Thread, st *tstate) float64 {
	if s.replicated() {
		return st.tol
	}
	if s.o.TransparentCache {
		sc := st.scalars.epoch(t)
		return s.cachedScalarF(t, st, s.tolS, &sc.tol, &sc.okT)
	}
	return s.tolS.Read(t)
}

func (s *Sim) readEps(t *upc.Thread, st *tstate) float64 {
	if s.replicated() {
		return st.eps
	}
	if s.o.TransparentCache {
		sc := st.scalars.epoch(t)
		return s.cachedScalarF(t, st, s.epsS, &sc.eps, &sc.okE)
	}
	return s.epsS.Read(t)
}

func (s *Sim) readGeom(t *upc.Thread, st *tstate) rootGeom {
	if s.replicated() {
		return st.geom
	}
	if s.o.TransparentCache {
		sc := st.scalars.epoch(t)
		if !sc.okG {
			sc.geom = s.geomS.Read(t)
			sc.okG = true
		} else {
			t.ChargeRaw(scalarHitCost)
		}
		return sc.geom
	}
	return s.geomS.Read(t)
}

func (s *Sim) readRoot(t *upc.Thread, st *tstate) NodeRef {
	if s.replicated() {
		return st.root
	}
	if s.o.TransparentCache {
		sc := st.scalars.epoch(t)
		if !sc.okR {
			sc.root = s.rootS.Read(t)
			sc.okR = true
		} else {
			t.ChargeRaw(scalarHitCost)
		}
		return sc.root
	}
	return s.rootS.Read(t)
}

// bodyPos reads a body's position: through the shared pointer (charged)
// below LevelRedistribute; through a cast local pointer at and above it
// when the body is local.
func (s *Sim) bodyPos(t *upc.Thread, st *tstate, r upc.Ref) vec.V3 {
	if s.o.Level >= LevelRedistribute && s.bodies.IsLocal(t, r) {
		return s.bodies.Local(t, r).Pos
	}
	return s.bodies.ReadView(t, r, bytesBodyPos).Pos
}

// newCell allocates and initializes a cell in the caller's shard.
func (s *Sim) newCell(t *upc.Thread, st *tstate, center vec.V3, half float64) upc.Ref {
	r := s.cells.Alloc(t, 1)
	t.Charge(s.par.CellInitCost)
	c := s.cells.Raw(r)
	*c = Cell{Center: center, Half: half}
	st.myCells = append(st.myCells, r)
	return r
}

// boundingBox computes the new root geometry: a local pass over owned
// bodies and a min/max reduction of the threads' boxes — two in-place
// vector all-reduces of st.bbLo/st.bbHi, or on the native flat path
// (which has no collectives) a barrier after which every thread folds
// its peers' boxes itself; min and max are exact, so both give the same
// cube. At LevelBaseline thread 0 publishes it to the shared scalar;
// above, every thread keeps the replicated copy.
func (s *Sim) boundingBox(t *upc.Thread, st *tstate) rootGeom {
	lo := vec.V3{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi := lo.Scale(-1)
	if s.flat != nil {
		for _, pos := range s.ownPos(st) {
			lo = lo.Min(pos)
			hi = hi.Max(pos)
		}
	} else {
		for _, br := range st.myBodies {
			pos := s.bodyPos(t, st, br)
			lo = lo.Min(pos)
			hi = hi.Max(pos)
			t.Charge(s.par.LocalDerefCost)
		}
	}
	st.bbLo = [3]float64{lo.X, lo.Y, lo.Z}
	st.bbHi = [3]float64{hi.X, hi.Y, hi.Z}
	if s.flat != nil {
		t.Barrier()
		for _, o := range s.ts {
			lo = lo.Min(vec.V3{X: o.bbLo[0], Y: o.bbLo[1], Z: o.bbLo[2]})
			hi = hi.Max(vec.V3{X: o.bbHi[0], Y: o.bbHi[1], Z: o.bbHi[2]})
		}
	} else {
		upc.AllReduceVecF64(t, st.bbLo[:], upc.OpMin)
		upc.AllReduceVecF64(t, st.bbHi[:], upc.OpMax)
		lo = vec.V3{X: st.bbLo[0], Y: st.bbLo[1], Z: st.bbLo[2]}
		hi = vec.V3{X: st.bbHi[0], Y: st.bbHi[1], Z: st.bbHi[2]}
	}
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

// collect assembles the Result after the SPMD run. nsteps is derived
// from the steps actually executed, not Options.Steps: a session
// finished early yields a Result over the measured steps it completed.
func (s *Sim) collect() (*Result, error) {
	p := s.rt.Threads()
	tab, err := s.stepPhaseTable()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Level:      s.o.Level,
		Threads:    p,
		ExecMode:   s.o.ExecMode,
		Phases:     tab.sum,
		StepPhases: make([]PhaseTimes, len(tab.rows)),
		PerThread:  make([]ThreadBreakdown, p),
	}
	copy(res.StepPhases, tab.rows)
	for i, st := range s.ts {
		res.PerThread[i] = ThreadBreakdown{
			Phases:       st.phases,
			TreeLocal:    st.treeLocalT,
			TreeMerge:    st.treeMergeT,
			Interactions: st.inter,
		}
		res.Interactions += st.inter
		res.BufferCopies += st.bufCopies
		res.CellsCopied += st.cellsCopied
		res.CellsAliased += st.cellsAliased
		for p := range st.phaseComm {
			res.PhaseComm[p].Add(st.phaseComm[p])
		}
	}
	var migrated, owned int
	for _, st := range s.ts {
		migrated += st.migrated
		owned += st.ownedTot
	}
	if owned > 0 {
		res.MigratedFraction = float64(migrated) / float64(owned)
	}
	res.Stats = s.rt.TotalStats()
	res.Sched = s.rt.SchedStats()

	// Final body state in ID order.
	bodies, err := s.gatherBodies()
	if err != nil {
		return nil, err
	}
	res.Bodies = bodies
	return res, nil
}

// gatherBodies copies the current body state out in ID order — from the
// shared heaps, or under ModeNative from the tree's body view and the
// columns — validating that thread ownership covers every body exactly
// once. IDs are a permutation of 0..n-1 by construction (every scenario
// numbers its bodies sequentially, SetBodies renumbers), so each owned
// body is placed straight at out[ID] — O(n), no sort — and an idSet
// catches a state that breaks the construction (a crafted simulate
// checkpoint, a redistribution bug).
// Shared by collect and Snapshot; only safe while the runtime is
// quiescent (session paused or finished).
func (s *Sim) gatherBodies() ([]nbody.Body, error) {
	out := make([]nbody.Body, s.o.Bodies)
	ids := newIDSet(s.o.Bodies)
	for _, st := range s.ts {
		for k, br := range st.myBodies {
			id := br.Idx
			if s.flat == nil {
				id = s.bodies.Raw(br).ID
			}
			if err := ids.claim(id); err != nil {
				return nil, err
			}
			if s.flat != nil {
				out[id] = s.flat.body(st.slotLo+k, id)
			} else {
				out[id] = *s.bodies.Raw(br)
			}
		}
	}
	if err := ids.covered(); err != nil {
		return nil, err
	}
	return out, nil
}

// idSet checks that the body IDs claimed one at a time are a permutation
// of 0..n-1, with gatherBodies' three errors.
type idSet struct {
	seen     []uint64
	n, owned int
}

func newIDSet(n int) idSet { return idSet{seen: make([]uint64, (n+63)/64), n: n} }

func (c *idSet) claim(id int32) error {
	if id < 0 || int(id) >= c.n {
		return fmt.Errorf("core: body id %d outside [0, %d)", id, c.n)
	}
	if c.seen[id>>6]&(1<<(id&63)) != 0 {
		return fmt.Errorf("core: body %d owned by two threads", id)
	}
	c.seen[id>>6] |= 1 << (id & 63)
	c.owned++
	return nil
}

func (c *idSet) covered() error {
	if c.owned != c.n {
		return fmt.Errorf("core: ownership covers %d bodies, want %d", c.owned, c.n)
	}
	return nil
}
