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
// A parked thread yields to the scheduler loop (sched.go), which runs on
// the controller's goroutine and returns once no thread is runnable; a
// release hands the baton back to the first arriver — the thread that
// held it when the pause began — so the post-resume schedule is exactly
// the schedule of an uninterrupted run. Parking charges nothing and
// aligns no clocks. That is what makes a Run-equivalent
// Start+Resume(Steps)+Finish, and any Step(k) partition thereof,
// byte-identical.
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

	// mu guards the arrival list and the live count. arrivals holds the
	// threads parked at the gate this pause, in arrival order.
	mu       sync.Mutex
	arrivals []int32
	live     int
}

// Start launches fn as a resumable SPMD session on every thread and
// blocks until the first pause: each thread has run the code before its
// first NextStep call (typically setup) and parked at the gate with no
// steps granted. If fn never calls NextStep, Start returns when every
// thread has exited; Resume then panics and only Finish is legal. On a
// runtime a failed region poisoned, Start runs no thread and panics.
func (rt *Runtime) Start(fn func(t *Thread)) *Session {
	if rt.session != nil {
		panic("upc: Start while another session is active on this runtime")
	}
	if rt.poisoned.Load() != nil {
		panic(poisonSecondary)
	}
	sess := &Session{
		rt:       rt,
		arrivals: make([]int32, 0, rt.n),
		live:     rt.n,
	}
	rt.session = sess
	for _, t := range rt.threads {
		t.steps = 0
	}
	rt.coop.spawn(func(t *Thread) {
		fn(t)
		sess.exit()
	})
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
// returns once all threads are gone. It is idempotent.
func (sess *Session) Finish() {
	if sess.completed {
		return
	}
	sess.finishing = true
	if !sess.done {
		sess.release()
	}
	sess.waitPause()
	sess.close()
}

// close detaches the completed session from the runtime.
func (sess *Session) close() {
	sess.completed = true
	sess.rt.session = nil
}

// waitPause checks the session at a pause — the scheduler loop has
// returned: every live thread is parked at the gate, or every thread
// has exited, or the region failed. A failed region is detached and its
// first failure re-raised on the controller.
func (sess *Session) waitPause() {
	if p := sess.rt.poisoned.Load(); p != nil {
		sess.close()
		panic(*p)
	}
	sess.done = sess.live == 0
}

// release ends a completed pause: every arrival except the first
// re-enters the run queue, and the baton goes back to the first arriver —
// the thread that was running when the pause began — so the continuation
// is scheduled exactly as if the gate did not exist. The release is not a
// counted handoff. The controller calls it only while every live thread
// is parked, and the run queue holds the arrivals before the loop runs,
// so the arrival list is reset without the lock.
func (sess *Session) release() {
	s, first := sess.rt.coop, sess.arrivals[0]
	for _, i := range sess.arrivals[1:] {
		s.heapPush(i)
	}
	sess.arrivals = sess.arrivals[:0]
	s.run(int(first), false)
}

// park yields thread t to the scheduler loop at the gate until the
// controller releases the pause.
func (sess *Session) park(t *Thread) {
	sess.mu.Lock()
	sess.arrivals = append(sess.arrivals, int32(t.id))
	sess.mu.Unlock()
	sess.rt.coop.suspend(t.id, sStep)
}

// exit retires a thread whose function returned normally (a panicking
// thread poisons the runtime instead).
func (sess *Session) exit() {
	sess.mu.Lock()
	sess.live--
	sess.mu.Unlock()
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

// ThreadNow returns thread i's simulated clock (Thread.Now read from
// outside). Only safe while the runtime is quiescent — between Run
// invocations, or while a session is paused.
func (rt *Runtime) ThreadNow(i int) float64 { return rt.threads[i].clock }
