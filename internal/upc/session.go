package upc

import (
	"fmt"
	"sync"
)

// Session is a resumable SPMD region: the same thread function Run
// executes to completion, but with the step loop driven from outside.
// The thread function marks its step boundaries by calling
// Thread.NextStep in a loop; the controller — the goroutine that called
// Start — doles out steps with Resume(k) and regains control whenever
// every thread has consumed its grant and parked at the gate. While the
// session is paused the runtime is quiescent (no emulated thread is
// running), so the controller may freely read shared heap state, thread
// clocks, and anything else the threads own.
//
// Lifecycle: Start(fn) launches the threads and returns at the first
// pause (threads park at their first NextStep, before any step has
// run). Resume(k) releases k steps to every thread and blocks until all
// of them are parked at the gate again. Finish() makes every pending
// NextStep return false — the thread functions fall out of their loops
// and return — and blocks until all thread goroutines have exited.
// A panic on any thread poisons the runtime exactly as under Run, and
// the call in progress (Start, Resume or Finish) re-raises the primary
// panic on the controller.
//
// Scheduling transparency (ModeSimulate): the step gate must not
// disturb the deterministic baton order that makes simulate runs
// byte-identical (see sched.go). Parking charges nothing and aligns no
// clocks, and when a pause is released the baton goes back to the
// thread that held it when the pause began (the first gate arriver) —
// so the post-resume schedule is exactly the schedule of an
// uninterrupted run. That is what makes Run() ≡ Start+Resume(Steps)+
// Finish, and any Step(k) partition thereof, byte-identical.
//
// One session may be active per Runtime at a time, and Runtime.Run may
// not be called while a session is active.
type Session struct {
	rt *Runtime
	// consumed[i] counts the steps thread i has taken; granted is the
	// total released by the controller. Under the cooperative scheduler
	// these are plain fields (single-runner + gate-channel ordering); in
	// ModeNative every access holds mu.
	consumed  []int64
	granted   int64
	finishing bool
	done      bool // every thread function has returned
	completed bool // Finish (or a propagated failure) already ran

	wg     sync.WaitGroup
	panics chan string

	// pauseCh carries the "all live threads parked" signal from the
	// cooperative scheduler to the controller (buffered: the pause can
	// complete before the controller starts waiting).
	pauseCh chan struct{}

	// Native-mode gate: threads park on stepC when their grant is
	// exhausted; the controller waits on ctrlC for quiescence.
	mu     sync.Mutex
	stepC  *sync.Cond
	ctrlC  *sync.Cond
	parked int
	live   int
}

// Start launches fn as a resumable SPMD session on every thread and
// blocks until the first pause: each thread has run the code before its
// first NextStep call (typically setup) and parked at the gate with no
// steps granted. If fn never calls NextStep, Start returns when every
// thread has exited; Resume then panics and only Finish is legal.
func (rt *Runtime) Start(fn func(t *Thread)) *Session {
	if rt.session != nil {
		panic("upc: Start while another session is active on this runtime")
	}
	sess := &Session{
		rt:       rt,
		consumed: make([]int64, rt.n),
		live:     rt.n,
		pauseCh:  make(chan struct{}, 1),
		panics:   make(chan string, rt.n),
	}
	sess.stepC = sync.NewCond(&sess.mu)
	sess.ctrlC = sync.NewCond(&sess.mu)
	rt.session = sess
	body := fn
	if rt.coop != nil {
		rt.coop.sess = sess
		body = rt.coop.gatedBody(fn)
	} else {
		body = func(t *Thread) {
			fn(t)
			sess.retire()
		}
	}
	rt.launch(body, &sess.wg, sess.panics)
	if rt.coop != nil {
		rt.coop.start()
	}
	sess.waitPause()
	return sess
}

// retire records a native-mode thread function's normal return. Threads
// that panic skip it: the poison path already wakes the controller.
func (sess *Session) retire() {
	sess.mu.Lock()
	sess.live--
	sess.ctrlC.Broadcast()
	sess.mu.Unlock()
}

// Resume releases k more steps to every thread and blocks until all of
// them have consumed the grant and parked at the gate again.
func (sess *Session) Resume(k int) {
	if k <= 0 {
		panic(fmt.Sprintf("upc: Session.Resume needs k > 0, got %d", k))
	}
	if sess.completed || sess.finishing {
		panic("upc: Session.Resume after Finish")
	}
	if sess.done {
		panic("upc: Session.Resume on a session whose threads have exited")
	}
	if sess.rt.coop != nil {
		sess.granted += int64(k)
		sess.rt.coop.stepResume()
	} else {
		sess.mu.Lock()
		sess.granted += int64(k)
		sess.stepC.Broadcast()
		sess.mu.Unlock()
	}
	sess.waitPause()
}

// Finish releases the threads to exit: every pending (and future)
// NextStep returns false, the thread functions return, and Finish
// blocks until all thread goroutines are gone. It is idempotent.
func (sess *Session) Finish() {
	if sess.completed {
		return
	}
	sess.finishing = true
	if sess.rt.coop != nil {
		if !sess.done && sess.rt.poisoned.Load() == nil {
			sess.rt.coop.stepResume()
		}
	} else {
		sess.mu.Lock()
		sess.stepC.Broadcast()
		sess.mu.Unlock()
	}
	sess.wg.Wait()
	sess.close()
	if msg := primaryPanic(sess.panics); msg != "" {
		panic(msg)
	}
}

// StepsDone returns the number of steps every thread has completed
// (meaningful while paused; all threads agree at a pause).
func (sess *Session) StepsDone() int64 {
	if sess.rt.coop != nil {
		return sess.granted
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.granted
}

// Done reports whether every thread function has returned.
func (sess *Session) Done() bool { return sess.done || sess.completed }

// close detaches the completed session from the runtime.
func (sess *Session) close() {
	sess.completed = true
	sess.rt.session = nil
	if sess.rt.coop != nil {
		sess.rt.coop.sess = nil
	}
}

// fail is the controller-side poison path: wait out the unwinding
// threads, detach, and re-raise the primary panic — the same contract
// Run has.
func (sess *Session) fail() {
	sess.wg.Wait()
	sess.close()
	msg := primaryPanic(sess.panics)
	if msg == "" {
		msg = poisonSecondary
	}
	panic(msg)
}

// waitPause blocks the controller until the session is quiescent: every
// live thread parked at the gate with its grant consumed, or every
// thread exited, or the runtime poisoned (which re-raises).
func (sess *Session) waitPause() {
	if sess.rt.coop != nil {
		select {
		case <-sess.pauseCh:
		case <-sess.rt.poisonCh:
		}
		if sess.rt.poisoned.Load() != nil {
			sess.fail()
		}
		if sess.rt.coop.nDone == sess.rt.coop.n {
			sess.done = true
		}
		return
	}
	sess.mu.Lock()
	for sess.rt.poisoned.Load() == nil && sess.live > 0 &&
		!(sess.parked == sess.live && sess.allConsumed()) {
		sess.ctrlC.Wait()
	}
	poisoned := sess.rt.poisoned.Load() != nil
	if sess.live == 0 {
		sess.done = true
	}
	sess.mu.Unlock()
	if poisoned {
		sess.fail()
	}
}

// allConsumed reports whether every thread has used its full grant (mu
// held). It distinguishes a genuine pause from the instant just after
// Resume, when the grant has grown but the parked threads have not yet
// woken to consume it.
func (sess *Session) allConsumed() bool {
	for i := range sess.consumed {
		if sess.consumed[i] < sess.granted {
			return false
		}
	}
	return true
}

// NextStep is the step gate of a session thread function: it blocks
// until the controller has granted this thread another step (true) or
// called Finish (false). Outside a session it panics — plain Run
// regions have no step protocol.
func (t *Thread) NextStep() bool {
	sess := t.rt.session
	if sess == nil {
		panic("upc: Thread.NextStep outside a session (use Runtime.Start)")
	}
	if t.rt.coop != nil {
		return sess.nextCoop(t)
	}
	return sess.nextNative(t)
}

// nextCoop is the cooperative-scheduler gate: charge-free, clock-
// neutral, parking through the scheduler so the single-runner invariant
// holds across the pause.
func (sess *Session) nextCoop(t *Thread) bool {
	s := sess.rt.coop
	for {
		sess.rt.checkPoison()
		if sess.consumed[t.id] < sess.granted {
			sess.consumed[t.id]++
			return true
		}
		if sess.finishing {
			return false
		}
		s.stepPark(t)
	}
}

// nextNative is the native-mode gate: a plain condition-variable park.
// The fast path (grant available) is one uncontended lock/unlock per
// step and allocates nothing, preserving the steady-state zero-
// allocation invariant of the native step loop.
func (sess *Session) nextNative(t *Thread) bool {
	sess.mu.Lock()
	for {
		if sess.rt.poisoned.Load() != nil {
			sess.mu.Unlock()
			panic(poisonAbort{poisonSecondary})
		}
		if sess.consumed[t.id] < sess.granted {
			sess.consumed[t.id]++
			sess.mu.Unlock()
			return true
		}
		if sess.finishing {
			sess.mu.Unlock()
			return false
		}
		sess.parked++
		if sess.parked == sess.live {
			sess.ctrlC.Broadcast()
		}
		sess.stepC.Wait()
		sess.parked--
	}
}

// ThreadNow returns thread i's current time (Thread.Now read from
// outside): the simulated clock in ModeSimulate, wall-clock seconds
// since the epoch in ModeNative. Only safe while the runtime is
// quiescent — between Run invocations, or while a session is paused.
func (rt *Runtime) ThreadNow(i int) float64 { return rt.threads[i].Now() }
