package upc

import (
	"fmt"
	"sync"
)

// Session is a resumable SPMD region: the thread function runs on every
// thread, with its step loop driven from outside. The thread function
// marks its step boundaries by calling Thread.NextStep in a loop; the
// controller — the goroutine that called Start — doles out steps with
// Resume(k) and regains control whenever every live thread has consumed
// its grant and parked at the gate. While the session is paused the
// runtime is quiescent (no emulated thread is running), so the
// controller may freely read shared heap state, thread clocks, and
// anything else the threads own.
//
// Lifecycle: Start(fn) launches the threads and returns at the first
// pause (threads park at their first NextStep, before any step has
// run). Resume(k) releases k steps to every thread and blocks until all
// of them are parked at the gate again. Finish() makes every pending
// NextStep return false — the thread functions fall out of their loops
// and return — and blocks until all threads have exited.
// A thread whose function returns early simply stops being live: the
// pause completes without it. A panic on any thread poisons the
// runtime, and the call in progress (Start, Resume or Finish) re-raises
// the primary panic on the controller.
//
// The gate is one protocol in both backends: a parking thread appends
// itself to the arrival list, and a release wakes the arrivals. The
// backends differ in how a thread waits and who sees the pause. In
// ModeNative a parked thread blocks on its wake channel
// (Runtime.gates), and the last live thread to arrive or exit signals
// the controller on pauseCh. In ModeSimulate a parked thread yields to
// the scheduler loop (sched.go), which runs on the controller's
// goroutine and returns once no thread is runnable; a release hands the
// baton back to the first arriver — the thread that held it when the
// pause began — so the post-resume schedule is exactly the schedule of
// an uninterrupted run. Parking charges nothing and aligns no clocks.
// That is what makes a Run-equivalent Start+Resume(Steps)+Finish, and
// any Step(k) partition thereof, byte-identical.
//
// One session may be active per Runtime at a time; Runtime.Run is
// Start(fn).Finish().
type Session struct {
	rt *Runtime
	// granted is the number of steps released by the controller, and
	// finishing is set by Finish. Both change only while every live
	// thread is parked, so threads read them without a lock.
	granted   int64
	finishing bool
	done      bool // every thread function has returned
	completed bool // Finish (or a propagated failure) already ran

	// wg counts the native thread goroutines. panics has room for a
	// message per thread plus the scheduler's deadlock report.
	wg     sync.WaitGroup
	panics chan string

	// mu guards the arrival list and the live count. arrivals holds the
	// threads parked at the gate this pause, in arrival order; woken is
	// the previous pause's list, retained so a release iterates it while
	// the woken threads append to the other buffer.
	mu       sync.Mutex
	arrivals []int32
	woken    []int32
	live     int

	// pauseCh carries the "every live thread parked or exited" signal to
	// the controller (buffered: the pause can complete before the
	// controller starts waiting).
	pauseCh chan struct{}
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
		arrivals: make([]int32, 0, rt.n),
		woken:    make([]int32, 0, rt.n),
		live:     rt.n,
		pauseCh:  make(chan struct{}, 1),
		panics:   make(chan string, rt.n+1),
	}
	rt.session = sess
	for _, t := range rt.threads {
		t.steps = 0
	}
	rt.launch(func(t *Thread) {
		fn(t)
		sess.exit(t)
	}, &sess.wg, sess.panics)
	sess.waitPause()
	return sess
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
	sess.granted += int64(k)
	sess.release()
	sess.waitPause()
}

// Finish releases the threads to exit: every pending (and future)
// NextStep returns false, the thread functions return, and Finish
// blocks until all threads are gone. It is idempotent.
func (sess *Session) Finish() {
	if sess.completed {
		return
	}
	sess.finishing = true
	if !sess.done {
		sess.release()
	}
	sess.wg.Wait()
	sess.close()
	if msg := primaryPanic(sess.panics); msg != "" {
		panic(msg)
	}
}

// close detaches the completed session from the runtime.
func (sess *Session) close() {
	sess.completed = true
	sess.rt.session = nil
}

// fail is the controller-side poison path: wait out the unwinding
// threads, detach, and re-raise the primary panic.
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
// live thread parked at the gate, or every thread exited, or the runtime
// poisoned (which re-raises). A simulate session is quiescent already:
// its scheduler loop returned at the pause.
func (sess *Session) waitPause() {
	if sess.rt.coop == nil {
		select {
		case <-sess.pauseCh:
		case <-sess.rt.poisonCh:
		}
	}
	if sess.rt.poisoned.Load() != nil {
		sess.fail()
	}
	sess.done = sess.live == 0
}

// release ends a completed pause, waking every arrival; under simulate
// it runs the scheduler loop until the next pause. The controller calls
// it only while every live thread is parked, so it swaps the arrival
// buffers without the lock.
func (sess *Session) release() {
	woken := sess.arrivals
	sess.arrivals, sess.woken = sess.woken[:0], woken
	if s := sess.rt.coop; s != nil {
		s.resume(woken)
		return
	}
	for _, i := range woken {
		sess.rt.gates[i] <- struct{}{}
	}
}

// park blocks thread t at the gate until the controller releases the
// pause; under native the last live thread to arrive signals the
// controller.
func (sess *Session) park(t *Thread) {
	sess.mu.Lock()
	sess.arrivals = append(sess.arrivals, int32(t.id))
	last := len(sess.arrivals) == sess.live
	sess.mu.Unlock()
	if s := sess.rt.coop; s != nil {
		s.suspend(t.id, sStep)
		return
	}
	if last {
		sess.pauseCh <- struct{}{}
	}
	<-sess.rt.gates[t.id]
}

// exit retires thread t after its function returned normally (a
// panicking thread poisons the runtime instead). Under native, if every
// remaining live thread is parked, t's exit completes the pause.
func (sess *Session) exit(t *Thread) {
	sess.mu.Lock()
	sess.live--
	last := len(sess.arrivals) == sess.live
	sess.mu.Unlock()
	if last && sess.rt.coop == nil {
		sess.pauseCh <- struct{}{}
	}
}

// firstArrival moves thread i to the front of the arrival list, so the
// next release hands it the baton; false if i is not parked at the gate.
func (sess *Session) firstArrival(i int32) bool {
	for k, a := range sess.arrivals {
		if a == i {
			sess.arrivals[0], sess.arrivals[k] = a, sess.arrivals[0]
			return true
		}
	}
	return false
}

// NextStep is the step gate of a session thread function: it blocks
// until the controller has granted this thread another step (true) or
// called Finish (false). Under Run, which grants no steps, it parks
// until every thread has parked or exited and then returns false.
func (t *Thread) NextStep() bool {
	sess := t.rt.session
	if sess == nil {
		panic("upc: Thread.NextStep outside an SPMD region (use Runtime.Start)")
	}
	for {
		t.rt.checkPoison()
		if t.steps < sess.granted {
			t.steps++
			return true
		}
		if sess.finishing {
			return false
		}
		sess.park(t)
	}
}

// ThreadNow returns thread i's current time (Thread.Now read from
// outside): the simulated clock in ModeSimulate, wall-clock seconds
// since the epoch in ModeNative. Only safe while the runtime is
// quiescent — between Run invocations, or while a session is paused.
func (rt *Runtime) ThreadNow(i int) float64 { return rt.threads[i].Now() }
