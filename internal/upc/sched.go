package upc

import (
	"fmt"
	"strings"
)

// sched is the deterministic virtual-time cooperative scheduler behind
// ModeSimulate. The old simulate backend ran one freely-preempted OS
// goroutine per emulated thread and rendezvoused them through real
// sync.Mutex/sync.Cond barriers — paying genuine kernel contention and
// context-switch cost to compute *virtual* LogGP clocks, and leaving
// multi-thread clock sequences at the mercy of the Go scheduler (lock
// acquisition and NIC reservation order varied run to run).
//
// The cooperative scheduler replaces that with run-to-completion
// segments: emulated threads still own a goroutine each (application
// code blocks mid-call-stack, so it needs a real stack), but exactly one
// is ever runnable — a "baton" is handed from thread to thread at
// synchronization points only (barriers, collectives, contended locks,
// spin polls). Between sync points a thread runs straight through,
// charging its private virtual clock with plain arithmetic; barriers and
// collectives resolve by counting arrivals in ordinary fields instead of
// kernel synchronization.
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

	// state is each thread's scheduling eligibility. A parked thread
	// blocks on its Runtime.gates channel; the baton holder wakes exactly
	// one thread per handoff.
	state []schedState

	// runq is a binary min-heap of parked runnable threads ordered by
	// (clock, id): scheduling decisions are O(log n), and a spinning
	// thread can test "am I still the lowest clock?" against runq[0] in
	// O(1) — with 512+ emulated threads and millions of spin polls, a
	// linear scan per yield dominated the whole run. Thread clocks never
	// change while parked in the heap (resolvers align clocks before
	// pushing), so the heap invariant holds.
	runq []int32

	// Barrier epoch: arrivals counted in plain fields; the last arriver
	// resolves and keeps running.
	barCount int
	barMax   float64

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
	sRunnable schedState = iota // parked in the run queue, eligible
	sRunning                    // holds the baton
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
	case sRunning:
		return "running"
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
// run: Handoffs is the number of baton transfers between thread
// goroutines (two channel operations each — the only kernel
// synchronization left in a simulate run), SpinYields the number of
// spin-wait polls that actually offered the baton to a peer (fast-path
// polls that kept it are not counted).
type SchedStats struct {
	Handoffs   uint64 `json:"handoffs"`
	SpinYields uint64 `json:"spin_yields"`
}

func newSched(rt *Runtime) *sched {
	s := &sched{
		rt:        rt,
		n:         rt.n,
		state:     make([]schedState, rt.n),
		collSlots: make([]any, rt.n),
	}
	return s
}

// SchedStats returns the cooperative-scheduler counters (zero in
// ModeNative, which has no scheduler).
func (rt *Runtime) SchedStats() SchedStats {
	if rt.coop == nil {
		return SchedStats{}
	}
	return rt.coop.stats
}

// less orders threads by (clock, id) — the scheduling priority.
func (s *sched) less(a, b int32) bool {
	ca, cb := s.rt.threads[a].clock, s.rt.threads[b].clock
	return ca < cb || (ca == cb && a < b)
}

// heapPush marks thread i runnable-parked and enqueues it.
func (s *sched) heapPush(i int32) {
	q := append(s.runq, i)
	c := len(q) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !s.less(q[c], q[p]) {
			break
		}
		q[c], q[p] = q[p], q[c]
		c = p
	}
	s.runq = q
}

// heapPop removes and returns the lowest-(clock, id) runnable thread,
// or -1 when none is parked runnable.
func (s *sched) heapPop() int {
	q := s.runq
	if len(q) == 0 {
		return -1
	}
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(q) && s.less(q[l], q[m]) {
			m = l
		}
		if r < len(q) && s.less(q[r], q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	s.runq = q
	return int(top)
}

// handoff gives the baton to thread next (which heapPop removed from
// the run queue). Callers must have finished all scheduler-state updates
// first: the moment the gate send completes, next is running.
func (s *sched) handoff(next int) {
	s.state[next] = sRunning
	s.stats.Handoffs++
	s.rt.gates[next] <- struct{}{}
}

// handoffGate is handoff without the Handoffs count. The session step
// gate uses it exclusively: gate parks and resumes are an artifact of
// the observer pausing the run, not of the simulated program's
// schedule, so a stepped run must report byte-identical SchedStats to
// an uninterrupted one.
func (s *sched) handoffGate(next int) {
	s.state[next] = sRunning
	s.rt.gates[next] <- struct{}{}
}

// yield parks the calling thread in `state` and hands the baton to the
// lowest-clock eligible thread. It returns when the caller is scheduled
// again. With state == sRunnable and no lower-clock peer, the caller
// keeps the baton and returns immediately (the spin fast path).
func (s *sched) yield(me int, state schedState) {
	s.state[me] = state
	if state == sRunnable {
		s.heapPush(int32(me))
	}
	next := s.heapPop()
	if next == me {
		s.state[me] = sRunning
		return
	}
	if next < 0 {
		s.deadlock(me)
	}
	s.handoff(next)
	<-s.rt.gates[me]
}

// deadlockMsg renders the all-threads-blocked failure. The old runtime
// hung forever here; the scheduler can see the whole wait graph and
// fails loudly instead.
func (s *sched) deadlockMsg(me int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "upc: deadlock: every live thread is blocked (thread %d yielded last):", me)
	for i, st := range s.state {
		if st != sRunnable || i == me {
			fmt.Fprintf(&b, " t%d=%v", i, st)
		}
	}
	return b.String()
}

// barrier is the cooperative Thread.Barrier: deposit the clock, resolve
// on the last arrival (max over participants plus the modelled cost),
// park otherwise. The resolver keeps the baton; resumed waiters have
// their clocks pre-aligned to the resolved time.
func (s *sched) barrier(t *Thread) {
	s.rt.checkPoison()
	if t.clock > s.barMax {
		s.barMax = t.clock
	}
	s.barCount++
	if s.barCount == s.n {
		resolved := s.barMax + s.rt.mach.BarrierCost()
		s.barCount, s.barMax = 0, 0
		for i, st := range s.state {
			if st == sBarrier {
				s.rt.threads[i].clock = resolved
				s.state[i] = sRunnable
				s.heapPush(int32(i))
			}
		}
		t.clock = resolved
		return
	}
	s.yield(t.id, sBarrier)
	s.rt.checkPoison()
	// The resolver aligned our clock before marking us runnable.
}

// exchange is the collective rendezvous: thread t deposits v, the last
// arriver runs combine over all deposits — exactly once per epoch — and
// keeps the baton, and every thread returns the combined value with the
// aligned clock max(arrivals)+cost.
func (s *sched) exchange(t *Thread, v any, cost float64, combine func(slots []any) any) (any, float64) {
	s.rt.checkPoison()
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
				s.state[i] = sRunnable
				s.heapPush(int32(i))
			}
		}
		return s.collResult, s.collResolved
	}
	s.yield(t.id, sColl)
	s.rt.checkPoison()
	// SPMD discipline makes this read safe: the next epoch cannot
	// resolve (and overwrite the result) until every thread — including
	// us — has deposited into it, which happens after this return.
	return s.collResult, s.collResolved
}

// lockAcquire takes l or parks until the holder releases. Mutual
// exclusion is structural: ownership transfers directly to the first
// waiter at release, and only one thread runs at a time.
func (s *sched) lockAcquire(t *Thread, l *Lock) {
	s.rt.checkPoison()
	if !l.held {
		l.held = true
		return
	}
	l.waiters = append(l.waiters, int32(t.id))
	s.yield(t.id, sLock)
	s.rt.checkPoison()
	// The releaser transferred ownership to us (l.held stayed true).
}

// lockRelease hands l to the longest-waiting thread, or frees it.
func (s *sched) lockRelease(t *Thread, l *Lock) {
	if len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters = l.waiters[:copy(l.waiters, l.waiters[1:])]
		s.state[w] = sRunnable
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
// the producer is reached in bounded virtual time. Simulate only
// (Runtime.sim).
func (t *Thread) SpinYield() {
	s := t.rt.sim("SpinYield")
	t.rt.checkPoison()
	// O(1) fast path: if no parked peer has a lower (clock, id), the
	// spinner keeps the baton — no peer could have run before it, so the
	// polled condition cannot have changed. Charged polls advance the
	// spinner's clock, so it eventually yields past runq[0].
	if len(s.runq) == 0 || !s.less(s.runq[0], int32(t.id)) {
		return
	}
	s.stats.SpinYields++
	s.yield(t.id, sRunnable)
	t.rt.checkPoison()
}

// stepPark is the baton hand-off of a thread parking at the session
// step gate (Session.park): the thread that completes the pause passes
// control to the session controller instead of another emulated thread —
// the single-runner invariant extends to the controller, which runs only
// while every thread is parked — and any other arriver hands the baton
// to the lowest-clock runnable thread. Gate handoffs are uncounted.
func (s *sched) stepPark(me int, last bool) {
	s.state[me] = sStep
	if last {
		return
	}
	next := s.heapPop()
	if next < 0 {
		// Peers are blocked on events only gate-parked threads could
		// produce (a barrier this thread abandoned, etc.) — the SPMD
		// discipline is broken.
		s.deadlock(me)
	}
	s.handoffGate(next)
}

// stepResume releases a completed pause: every arrival except the first
// re-enters the run queue, and the baton goes back to the first arriver —
// the thread that was running when the pause began — so the
// continuation is scheduled exactly as if the gate did not exist.
// Called by the session controller while every thread is parked.
func (s *sched) stepResume(arrivals []int32) {
	for _, i := range arrivals[1:] {
		s.state[i] = sRunnable
		s.heapPush(i)
	}
	s.handoffGate(int(arrivals[0]))
}

// exit retires the calling thread at the end of the SPMD function and,
// unless its exit completed a pause, passes the baton on. After a poison
// every thread is already awake and unwinding, so no baton discipline
// remains.
func (s *sched) exit(me int, last bool) {
	if s.rt.poisoned.Load() != nil {
		return
	}
	s.state[me] = sDone
	if last {
		return
	}
	next := s.heapPop()
	if next < 0 {
		// The remaining threads are blocked on events that can no longer
		// happen (e.g. a barrier this thread will never reach).
		s.deadlock(me)
	}
	s.handoff(next)
}

// deadlock poisons the runtime with the all-threads-blocked report and
// panics with it.
func (s *sched) deadlock(me int) {
	msg := s.deadlockMsg(me)
	s.rt.poison(msg) // wakes every parked thread; they abort on their gates
	panic(msg)
}

// gatedBody wraps one cooperative SPMD region's thread function: reset
// the region state (the caller invokes gatedBody before launching any
// goroutine), then have each thread wait for its first scheduling before
// it runs. Clocks persist across regions, exactly like the old backend.
func (s *sched) gatedBody(fn func(t *Thread)) func(t *Thread) {
	s.runq = s.runq[:0]
	for i := range s.state {
		s.state[i] = sRunnable
		s.heapPush(int32(i))
	}
	return func(t *Thread) {
		<-s.rt.gates[t.id]
		if s.rt.poisoned.Load() != nil {
			// A peer failed before this thread was ever scheduled. Abort
			// instead of running fn: the single-runner invariant must
			// hold even while a poisoned region unwinds, so that the
			// scheduler (and everything it orders — clocks, NIC times,
			// heap storage) never sees concurrent access.
			panic(poisonAbort{poisonSecondary})
		}
		fn(t)
	}
}

// start hands the baton to the first thread of a region (called after
// every thread goroutine is launched; threads are parked on their gates,
// so launch order is irrelevant).
func (s *sched) start() {
	if first := s.heapPop(); first >= 0 {
		s.handoff(first)
	}
}
