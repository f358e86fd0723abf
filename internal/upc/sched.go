package upc

import (
	"fmt"
	"iter"
	"strings"
)

// sched is the runtime's deterministic virtual-time cooperative
// scheduler. Real kernel synchronization between emulated threads
// would buy nothing — the clocks are virtual — and would leave clock
// sequences at the mercy of the Go scheduler. So the threads run as
// run-to-completion segments: each is an iter.Pull coroutine (code
// blocks mid-call-stack, so it needs a stack of its own), and one
// scheduler loop (run), on the controller's goroutine, resumes exactly
// one of them at a time. A thread gives the "baton" back to the loop at
// synchronization points only (barriers, collectives, contended locks,
// spin polls, the session step gate), and the loop alone picks who runs
// next. Between sync points a thread runs straight through, charging
// its private clock with plain arithmetic; barriers and collectives
// resolve by counting arrivals in ordinary fields.
//
// Scheduling policy: whenever the baton is released, it goes to the
// eligible thread with the lowest virtual clock (ties to the lowest
// thread id). This yields a canonical interleaving — one the old
// preemptive runtime could legally have produced — so simulated clocks
// are byte-identical across repeated runs, across -parallel worker
// counts, and under -race. Single-thread runs are trivially unchanged,
// which is what pins the simulate goldens.
//
// Determinism argument (see DESIGN.md §9): every source of cross-thread
// virtual-time coupling — barrier max-clock alignment, collective
// epochs, Lock.availAt serialization, NIC occupancy (nicReserve) — is
// either order-independent (max over arrivals) or ordered by the baton,
// and the baton order is a pure function of virtual clocks, which are
// themselves pure functions of the deterministic per-thread instruction
// streams. No wall-clock time, map iteration, or Go scheduling decision
// feeds back into a clock.
type sched struct {
	rt *Runtime
	n  int

	// state is each thread's scheduling eligibility.
	state []schedState

	// next and stop drive each thread's coroutine of the current region
	// (only the loop calls them), and yields holds the yield each
	// coroutine suspends itself with.
	next   []func() (bool, bool)
	stop   []func()
	yields []func(bool) bool

	// runq is a binary min-heap of parked runnable threads ordered by
	// (clock, id): scheduling decisions are O(log n), and a spinning
	// thread can test "am I still the lowest clock?" against runq[0] in
	// O(1) — with 512+ emulated threads and millions of spin polls, a
	// linear scan per yield dominated the whole run. Thread clocks never
	// change while parked in the heap (resolvers align clocks before
	// pushing), so each entry carries its thread's clock as pushed and
	// the heap invariant holds without reading the threads.
	runq []runEntry

	// Barrier epoch: arrivals counted in plain fields; the last arriver
	// resolves and keeps running. barCost is the machine's modelled
	// barrier cost, fixed for the runtime's life.
	barCount int
	barMax   float64
	barCost  float64

	// Collective epoch, counted the same way.
	collCount    int
	collMax      float64
	collSlots    []any
	collResult   any
	collResolved float64

	// Retained scratch of the allocation-free collectives (coll.go): the
	// reduction accumulator, and the last resolved AllToAll's deposits,
	// which its participants read after they return.
	redAcc []float64
	a2a    []any

	stats SchedStats
}

// schedState is a parked thread's scheduling eligibility.
type schedState uint8

const (
	sRunnable schedState = iota // in the run queue or holding the baton
	sBarrier                    // parked in Barrier until the epoch resolves
	sColl                       // parked in a collective until the epoch resolves
	sLock                       // parked waiting for a Lock holder to release
	sStep                       // parked at the session step gate
	sDone                       // returned from the SPMD function
)

func (st schedState) String() string {
	switch st {
	case sRunnable:
		return "runnable"
	case sBarrier:
		return "barrier"
	case sColl:
		return "collective"
	case sLock:
		return "lock"
	case sStep:
		return "step-gate"
	case sDone:
		return "done"
	}
	return "?"
}

// SchedStats counts cooperative-scheduler events over a Runtime's
// lifetime. They quantify the real cost the harness pays per simulated
// run: Handoffs is the number of baton transfers between threads (a
// switch through the scheduler loop each; the step gate's parks and
// releases are not counted), SpinYields the number of spin-wait polls
// that actually offered the baton to a peer (fast-path polls that kept
// it are not counted).
type SchedStats struct {
	Handoffs   uint64 `json:"handoffs"`
	SpinYields uint64 `json:"spin_yields"`
}

func newSched(rt *Runtime) *sched {
	return &sched{
		rt:        rt,
		n:         rt.n,
		state:     make([]schedState, rt.n),
		next:      make([]func() (bool, bool), rt.n),
		stop:      make([]func(), rt.n),
		yields:    make([]func(bool) bool, rt.n),
		collSlots: make([]any, rt.n),
		barCost:   rt.mach.BarrierCost(),
	}
}

// SchedStats returns the cooperative-scheduler counters.
func (rt *Runtime) SchedStats() SchedStats { return rt.coop.stats }

// runEntry is a runnable thread in the run queue, keyed by its clock.
type runEntry struct {
	clock float64
	id    int32
}

// before orders threads by (clock, id) — the scheduling priority.
func (a runEntry) before(b runEntry) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

// heapPush marks thread i runnable and enqueues it at its current clock.
func (s *sched) heapPush(i int32) {
	s.state[i] = sRunnable
	q := append(s.runq, runEntry{s.rt.threads[i].clock, i})
	c := len(q) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !q[c].before(q[p]) {
			break
		}
		q[c], q[p] = q[p], q[c]
		c = p
	}
	s.runq = q
}

// heapPop removes and returns the lowest-(clock, id) runnable thread,
// or -1 when none is parked runnable. It walks the hole left at the
// root down to a leaf along the lower children, then sifts the last
// entry up from there: one comparison per level on the way down, and
// the last entry, one of the highest, rarely climbs (Floyd's heapsort
// pop).
func (s *sched) heapPop() int {
	q := s.runq
	if len(q) == 0 {
		return -1
	}
	top := q[0].id
	last := q[len(q)-1]
	q = q[:len(q)-1]
	if len(q) > 0 {
		i := 0
		for c := 1; c < len(q); c = 2*i + 1 {
			if c+1 < len(q) && q[c+1].before(q[c]) {
				c++
			}
			q[i] = q[c]
			i = c
		}
		for i > 0 {
			p := (i - 1) / 2
			if !last.before(q[p]) {
				break
			}
			q[i] = q[p]
			i = p
		}
		q[i] = last
	}
	s.runq = q
	return int(top)
}

// spawn starts one cooperative SPMD region: it makes every thread a
// runnable coroutine running body under the poison-on-panic wrapper,
// and runs the loop until the region's first pause. Clocks persist
// across regions, exactly like the old backend.
func (s *sched) spawn(body func(t *Thread)) {
	s.runq = s.runq[:0]
	for i, t := range s.rt.threads {
		s.heapPush(int32(i))
		s.next[i], s.stop[i] = iter.Pull(func(yield func(bool) bool) {
			s.yields[i] = yield
			s.rt.guard(t, body)
		})
	}
	if first := s.heapPop(); first >= 0 {
		s.run(first, true)
	}
}

// run is the scheduler loop. It resumes thread cur and, each time the
// running thread yields or returns, the lowest-(clock, id) runnable
// thread, counting the switch as a handoff unless the thread it follows
// parked at the step gate. It returns once no thread is runnable and
// every live thread is parked at the step gate or has returned (a
// pause). A failed region — a thread panicked, some live thread waits
// in a barrier, a collective or a lock that nothing can release (a
// deadlock), or the runtime was poisoned before — runs no further
// thread: run unwinds every suspended one and returns.
func (s *sched) run(cur int, counted bool) {
	for s.rt.poisoned.Load() == nil {
		if counted {
			s.stats.Handoffs++
		}
		c, live := s.next[cur]()
		if !live {
			s.state[cur] = sDone
		}
		counted = c || !live
		last := cur
		if cur = s.heapPop(); cur < 0 && s.rt.poisoned.Load() == nil {
			if !s.blocked() {
				return
			}
			s.deadlock(last)
		}
	}
	s.unwind()
}

// blocked reports whether some live thread waits in a barrier, a
// collective or a lock.
func (s *sched) blocked() bool {
	for _, st := range s.state {
		if st == sBarrier || st == sColl || st == sLock {
			return true
		}
	}
	return false
}

// unwind ends every coroutine of a poisoned region: a suspended thread's
// yield returns false and it aborts as a poisoned peer (suspend), one
// never scheduled does not run at all, and a returned one is already
// gone.
func (s *sched) unwind() {
	for i, stop := range s.stop {
		stop()
		s.state[i] = sDone
	}
}

// suspend parks the calling thread in state (a runnable one re-enters
// the run queue) and yields to the loop, which resumes it once it is
// picked again. The yielded value says whether the pass counts as a
// handoff: a step-gate park does not, because it is an artifact of the
// observer pausing the run, so a stepped run reports byte-identical
// SchedStats to an uninterrupted one. A false return from yield means
// the loop is unwinding a poisoned region.
func (s *sched) suspend(me int, state schedState) {
	s.state[me] = state
	if state == sRunnable {
		s.heapPush(int32(me))
	}
	if !s.yields[me](state != sStep) {
		panic(poisonAbort{})
	}
}

// deadlock is the loop's report of a region in which no thread is
// runnable while some live thread waits on an event only a parked or
// returned thread could produce. It poisons the runtime with the whole
// wait graph: being the region's first failure, that report is its
// primary panic.
func (s *sched) deadlock(me int) {
	var b strings.Builder
	fmt.Fprintf(&b, "upc: deadlock: every live thread is blocked (thread %d yielded last):", me)
	for i, st := range s.state {
		if st != sRunnable || i == me {
			fmt.Fprintf(&b, " t%d=%v", i, st)
		}
	}
	s.rt.poison(b.String())
}

// barrier is the cooperative Thread.Barrier: deposit the clock, resolve
// on the last arrival (max over participants plus the modelled cost),
// park otherwise. The resolver keeps the baton; resumed waiters have
// their clocks pre-aligned to the resolved time.
func (s *sched) barrier(t *Thread) {
	if t.clock > s.barMax {
		s.barMax = t.clock
	}
	s.barCount++
	if s.barCount == s.n {
		resolved := s.barMax + s.barCost
		s.barCount, s.barMax = 0, 0
		for i, st := range s.state {
			if st == sBarrier {
				s.rt.threads[i].clock = resolved
				s.heapPush(int32(i))
			}
		}
		t.clock = resolved
		return
	}
	s.suspend(t.id, sBarrier)
	// The resolver aligned our clock before marking us runnable.
}

// exchange is the collective rendezvous: thread t deposits v, the last
// arriver runs combine over all deposits — exactly once per epoch — and
// keeps the baton, and every thread returns the combined value with the
// aligned clock max(arrivals)+cost.
func (s *sched) exchange(t *Thread, v any, cost float64, combine func(slots []any) any) (any, float64) {
	s.collSlots[t.id] = v
	if t.clock > s.collMax {
		s.collMax = t.clock
	}
	s.collCount++
	if s.collCount == s.n {
		s.collResult = combine(s.collSlots)
		s.collResolved = s.collMax + cost
		s.collCount, s.collMax = 0, 0
		for i := range s.collSlots {
			s.collSlots[i] = nil
		}
		for i, st := range s.state {
			if st == sColl {
				s.heapPush(int32(i))
			}
		}
		return s.collResult, s.collResolved
	}
	s.suspend(t.id, sColl)
	// SPMD discipline makes this read safe: the next epoch cannot
	// resolve (and overwrite the result) until every thread — including
	// us — has deposited into it, which happens after this return.
	return s.collResult, s.collResolved
}

// lockAcquire takes l or parks until the holder releases. Mutual
// exclusion is structural: ownership transfers directly to the first
// waiter at release, and only one thread runs at a time.
func (s *sched) lockAcquire(t *Thread, l *Lock) {
	if !l.held {
		l.held = true
		return
	}
	l.waiters = append(l.waiters, int32(t.id))
	s.suspend(t.id, sLock)
	// The releaser transferred ownership to us (l.held stayed true).
}

// lockRelease hands l to the longest-waiting thread, or frees it.
func (s *sched) lockRelease(t *Thread, l *Lock) {
	if len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters = l.waiters[:copy(l.waiters, l.waiters[1:])]
		s.heapPush(w)
		return
	}
	l.held = false
}

// SpinYield is what a spin-wait loop (e.g. the c-of-m Done-flag poll)
// calls per failed poll: under the cooperative scheduler the producer
// can never run while the consumer spins, so each failed poll must offer
// the baton to the lowest-clock peer. If the spinner still has the
// lowest clock it keeps running — charged polls advance its clock, so
// the producer is reached in bounded virtual time.
func (t *Thread) SpinYield() {
	s := t.rt.coop
	// O(1) fast path: if no parked peer has a lower (clock, id), the
	// spinner keeps the baton — no peer could have run before it, so the
	// polled condition cannot have changed. Charged polls advance the
	// spinner's clock, so it eventually yields past runq[0].
	if len(s.runq) == 0 || !s.runq[0].before(runEntry{t.clock, int32(t.id)}) {
		return
	}
	s.stats.SpinYields++
	s.suspend(t.id, sRunnable)
}
