package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"upcbh/internal/arena"
	"upcbh/internal/nbody"
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
	o  Options
	rt *upc.Runtime

	sess      *upc.Session
	state     simState
	stepsDone int

	// eng is the backend that owns the bodies and the tree: simEngine
	// (the simulator's pointer tree, every level) or flatEngine (the
	// native flat tree). start builds it from the final Options.Bodies;
	// nil before.
	eng engine

	init []nbody.Body
	ts   []*tstate

	// stepTab is the step-phase table: the only store of step rows.
	stepTab phaseTable
}

// engine is one backend's memory and phases, driven by the Sim one call
// per thread per phase group (DESIGN.md §11): where the bodies and the
// tree live and how remote access is paid for. The lifecycle, phase
// bookkeeping, snapshots and container framing are the Sim's.
type engine interface {
	setup(t *upc.Thread) // thread t's initial bodies, before step 0
	// prepare runs the step up to the force phase and returns the phase
	// times by value: a pointer passed to an interface method escapes.
	prepare(t *upc.Thread, measured bool) PhaseTimes
	force(t *upc.Thread, measured bool)
	advance(t *upc.Thread)
	// gather copies every owned body to out[ID], claiming each ID in ids.
	gather(out []nbody.Body, ids *idSet) error
	// capture fills the engine's fields of cs and returns the regions
	// after "state"; restore reads them back into a fresh session, with
	// the owned bodies already decoded and checked (ownedBodies).
	capture(cs *ckptState) []arena.NamedRegion
	restore(cs *ckptState, c *arena.Checkpoint, bodies []nbody.Body) error
	release() // after the threads have exited
}

// rootGeom is the root-cell geometry (SPLASH2's rsize plus center); at
// LevelBaseline it lives in a UPC shared scalar on thread 0 and is read
// remotely by every insertion, which is the §5.1 pathology.
type rootGeom struct {
	Center vec.V3
	Half   float64
}

// tstate is the backend-neutral part of one UPC thread's private state
// (the "private area" of the UPC memory model). Each engine's thread
// state embeds it.
type tstate struct {
	// step is this thread's time-step counter, advanced once per
	// granted session step. Threads never read each other's counters;
	// at a session pause they all agree.
	step int

	// mybodytab: global refs of the bodies this thread currently owns;
	// under ModeNative, tree slot slotLo+i's body ID and its last
	// advancer (flatnative.go ids).
	myBodies []upc.Ref

	// The step's bounding box: this thread's, then the reduced root cube.
	bbLo, bbHi [3]float64
	geom       rootGeom

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
	row       PhaseTimes           // the last measured step's phase times, for stepTab
	phaseComm [NumPhases]upc.Stats // per-phase operation deltas (measured steps)
}

// New builds a simulation: it validates the options, generates the
// initial conditions from the configured scenario (Plummer by default)
// and sets up the runtime. The backend's memory is built when the
// session starts, from the final body count (see SetBodies).
func New(opts Options) (*Sim, error) {
	if err := opts.validate(); err != nil {
		return nil, &marked{ErrInvalidOptions, err}
	}
	init, err := nbody.GenerateScenario(opts.Scenario, opts.Bodies, opts.Seed)
	if err != nil {
		return nil, err
	}
	rt := upc.NewRuntimeMode(opts.Machine, opts.ExecMode)
	s := &Sim{
		o:    opts,
		rt:   rt,
		init: init,
		ts:   make([]*tstate, rt.Threads()),
	}
	for i := range s.ts {
		s.ts[i] = new(tstate)
	}
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
	for i := range bodies {
		if !finiteBody(&bodies[i]) {
			panic(fmt.Sprintf("core: SetBodies body %d has a NaN or infinite field", i))
		}
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

// start builds the engine and launches the SPMD session: every thread
// runs setup and parks at its first step boundary. A setup-time thread
// panic propagates, as it did under the old run-to-completion Run.
func (s *Sim) start() {
	if s.o.ExecMode == ModeNative {
		s.eng = newFlatEngine(s)
	} else {
		s.eng = newSimEngine(s)
	}
	// Steps is a client's number: start at most 1024 rows, and let
	// append grow past them.
	s.stepTab.rows = make([]PhaseTimes, 0, min(s.o.Steps-s.o.Warmup, 1024))
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
// past Options.Steps. A thread panic (runtime poison) propagates as a
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

// Release returns the engine's memory: heap chunks to the process-wide
// recycling pools, arenas to the OS. Call it after the last use of the
// Sim; collected Results and Snapshots are unaffected (they copy all
// body state out). Release is idempotent — a second call is a no-op,
// not a double return of the same chunks to the pools — and it
// terminates a still-paused session first, so a stepped Sim can be
// abandoned without Finish.
func (s *Sim) Release() {
	switch s.state {
	case simReleased:
		return
	case simPaused:
		s.sess.Finish()
	}
	s.state = simReleased
	if s.eng != nil {
		s.eng.release()
	}
}

// beginPhase/endPhase bracket one phase: wall/simulated time and the
// operation-counter delta, then the phase barrier. They are plain
// functions (not closures) so the steady-state step loop allocates
// nothing; the measurement sequence is identical to the pre-refactor
// closure (time read before the counter delta, barrier last), which the
// simulate goldens pin.
func beginPhase(t *upc.Thread) (float64, upc.Stats) {
	return t.Now(), t.Stats()
}

func (st *tstate) endPhase(t *upc.Thread, ph *PhaseTimes, p Phase, t0 float64, s0 upc.Stats, measured bool) {
	st.endPhaseFlow(t, ph, p, t0, s0, measured)
	t.Barrier()
}

// endPhaseFlow is endPhase without the closing barrier: the phase's time
// and operation delta are recorded, but the thread flows straight into
// the next phase. Used by the native flat path, where nothing after the
// tree barrier reads another thread's writes until the force barrier.
func (st *tstate) endPhaseFlow(t *upc.Thread, ph *PhaseTimes, p Phase, t0 float64, s0 upc.Stats, measured bool) {
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
	s.eng.setup(t)
	t.Barrier()
	for t.NextStep() {
		s.stepOnce(t, st, st.step)
		st.step++
	}
}

// stepOnce runs one full time-step on one thread: tree build,
// partition, redistribution, force and advance, with per-phase timing.
// A measured step's row is stored before the advance barrier and thread 0
// reduces every thread's into stepTab after it: no thread rewrites its
// row before the next step's barriers, which thread 0 must reach first.
// The reduction charges no virtual time.
func (s *Sim) stepOnce(t *upc.Thread, st *tstate, step int) {
	measured := step >= s.o.Warmup
	ph := s.eng.prepare(t, measured)

	t0, s0 := beginPhase(t)
	s.eng.force(t, measured)
	st.endPhase(t, &ph, PhaseForce, t0, s0, measured)
	t0, s0 = beginPhase(t)
	s.eng.advance(t)
	st.endPhaseFlow(t, &ph, PhaseAdvance, t0, s0, measured)
	if measured {
		st.phases.Add(ph)
		st.row = ph
	}
	t.Barrier()

	if measured && t.ID() == 0 {
		s.stepTab.reduce(s.ts)
	}
	if s.o.testStepHook != nil {
		s.o.testStepHook(t, step)
	}
}

// collect assembles the Result after the SPMD run. nsteps is derived
// from the steps actually executed, not Options.Steps: a session
// finished early yields a Result over the measured steps it completed.
func (s *Sim) collect() (*Result, error) {
	p := s.rt.Threads()
	res := &Result{
		Level:      s.o.Level,
		Threads:    p,
		ExecMode:   s.o.ExecMode,
		Phases:     s.stepTab.sum,
		StepPhases: slices.Clone(s.stepTab.rows),
		PerThread:  make([]ThreadBreakdown, p),
	}
	var migrated, owned int
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

// gatherBodies copies the current body state out in ID order,
// validating that thread ownership covers every body exactly once. IDs
// are a permutation of 0..n-1 by construction (every scenario numbers
// its bodies sequentially, SetBodies renumbers), so each owned body is
// placed straight at out[ID] — O(n), no sort — and an idSet catches a
// state that breaks the construction (a crafted simulate checkpoint, a
// redistribution bug). Shared by collect and Snapshot; only safe while
// the runtime is quiescent (session paused or finished).
func (s *Sim) gatherBodies() ([]nbody.Body, error) {
	out := make([]nbody.Body, s.o.Bodies)
	ids := newIDSet(s.o.Bodies)
	if err := s.eng.gather(out, &ids); err != nil {
		return nil, err
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

// finiteBody reports whether every float field of b is finite. A NaN or
// ±Inf position has no octant: the native flat build would recurse to
// its depth limit and panic in the first step.
func finiteBody(b *nbody.Body) bool {
	for _, f := range [...]float64{b.Pos.X, b.Pos.Y, b.Pos.Z, b.Mass, b.Cost,
		b.Vel.X, b.Vel.Y, b.Vel.Z, b.Acc.X, b.Acc.Y, b.Acc.Z, b.Phi} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
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
