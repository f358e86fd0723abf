package upc

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"upcbh/internal/machine"
)

// sessionBody is a canonical SPMD session body for the tests: per-step
// it charges thread-dependent time, exchanges data through a barrier-
// separated collective, and records its step count.
func sessionBody(steps *[][]int, clocks *[][]float64) func(t *Thread) {
	return func(t *Thread) {
		me := t.ID()
		t.Charge(1e-6 * float64(me+1)) // setup skew
		t.Barrier()
		for t.NextStep() {
			t.Charge(1e-6)
			AllReduceVecF64(t, []float64{float64(me)}, OpMax)
			t.Barrier()
			(*steps)[me] = append((*steps)[me], len((*steps)[me]))
			(*clocks)[me] = append((*clocks)[me], t.Now())
		}
	}
}

func newSessionState(n int) (*[][]int, *[][]float64) {
	steps := make([][]int, n)
	clocks := make([][]float64, n)
	return &steps, &clocks
}

func TestSessionStepGateSimulate(t *testing.T) {
	const n = 4
	rt := NewRuntime(machine.Default(n))
	steps, clocks := newSessionState(n)
	sess := rt.Start(sessionBody(steps, clocks))
	for i := 0; i < n; i++ {
		if len((*steps)[i]) != 0 {
			t.Fatalf("thread %d ran %d steps before any Resume", i, len((*steps)[i]))
		}
	}
	sess.Resume(2)
	for i := 0; i < n; i++ {
		if len((*steps)[i]) != 2 {
			t.Fatalf("thread %d ran %d steps after Resume(2), want 2", i, len((*steps)[i]))
		}
	}
	sess.Resume(3)
	for i := 0; i < n; i++ {
		if got := len((*steps)[i]); got != 5 {
			t.Fatalf("thread %d ran %d steps after Resume(2)+Resume(3), want 5", i, got)
		}
	}
	if got := sess.granted; got != 5 {
		t.Fatalf("steps granted = %d, want 5", got)
	}
	// Clocks must be monotone across the pause: the gate charges
	// nothing and never rewinds time.
	for i := 0; i < n; i++ {
		cs := (*clocks)[i]
		for k := 1; k < len(cs); k++ {
			if cs[k] < cs[k-1] {
				t.Fatalf("thread %d clock went backwards across steps: %v", i, cs)
			}
		}
	}
	sess.Finish()
	if !(sess.done || sess.completed) {
		t.Fatal("session not done after Finish")
	}
	for i := 0; i < n; i++ {
		if got := len((*steps)[i]); got != 5 {
			t.Fatalf("thread %d ran %d steps total, want 5 (Finish must not grant steps)", i, got)
		}
	}
}

// TestSessionEquivalentToRun pins the scheduling transparency of the
// step gate in the simulate backend: a stepped session must leave every
// thread with exactly the clock an uninterrupted Run of the same
// per-step work produces, for any partition of the steps.
func TestSessionEquivalentToRun(t *testing.T) {
	const n, total = 8, 6
	run := func(partition []int) []float64 {
		rt := NewRuntimeMode(machine.Default(n), ModeSimulate)
		steps, clocks := newSessionState(n)
		sess := rt.Start(sessionBody(steps, clocks))
		for _, k := range partition {
			sess.Resume(k)
		}
		sess.Finish()
		out := make([]float64, n)
		for i := range out {
			out[i] = rt.ThreadNow(i)
		}
		return out
	}
	reference := func() []float64 {
		rt := NewRuntimeMode(machine.Default(n), ModeSimulate)
		// The same per-step work as sessionBody, but as a plain Run
		// region with a counted loop instead of the NextStep gate.
		rt.Run(func(t *Thread) {
			me := t.ID()
			t.Charge(1e-6 * float64(me+1))
			t.Barrier()
			for s := 0; s < total; s++ {
				t.Charge(1e-6)
				AllReduceVecF64(t, []float64{float64(me)}, OpMax)
				t.Barrier()
			}
		})
		out := make([]float64, n)
		for i := range out {
			out[i] = rt.ThreadNow(i)
		}
		return out
	}()
	for _, partition := range [][]int{{total}, {1, 1, 1, 1, 1, 1}, {2, 3, 1}, {5, 1}} {
		got := run(partition)
		for i := range got {
			if got[i] != reference[i] {
				t.Fatalf("partition %v: thread %d clock %v != reference %v",
					partition, i, got[i], reference[i])
			}
		}
	}
}

func TestSessionPanicPropagatesSimulate(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := NewRuntime(machine.Default(4))
	sess := rt.Start(func(th *Thread) {
		th.Barrier()
		for th.NextStep() {
			if th.ID() == 2 {
				panic("session boom")
			}
			th.Barrier()
		}
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Resume did not propagate the thread panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "session boom") {
			t.Fatalf("propagated panic lost the original message: %v", r)
		}
		expectUnwound(t, before)
	}()
	sess.Resume(1)
	t.Fatal("Resume returned despite a panicking thread")
}

// TestSessionBodyWithoutGate: a session whose body never calls NextStep
// degenerates to a plain SPMD region — Start returns once every thread
// has exited, and Finish is a no-op.
func TestSessionBodyWithoutGate(t *testing.T) {
	t.Run("simulate", func(t *testing.T) {
		rt := NewRuntime(machine.Default(3))
		var ran atomic.Int64
		sess := rt.Start(func(th *Thread) {
			th.Barrier()
			ran.Add(1)
		})
		if got := ran.Load(); got != 3 {
			t.Fatalf("Start returned with %d of 3 threads finished", got)
		}
		if !(sess.done || sess.completed) {
			t.Fatal("session with no gate should be done after Start")
		}
		sess.Finish()
	})
}

// TestSessionGuards pins the misuse panics — Run during an active
// session, a second Start, Resume(0), Resume after Finish, and NextStep
// outside any region — and that a Run region, a session that is never
// resumed, takes no step.
func TestSessionGuards(t *testing.T) {
	t.Run("simulate", func(t *testing.T) {
		rt := NewRuntime(machine.Default(2))
		sess := rt.Start(func(th *Thread) {
			for th.NextStep() {
				th.Barrier()
			}
		})
		mustPanic := func(name string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}
		mustPanic("Run during session", func() { rt.Run(func(th *Thread) {}) })
		mustPanic("second Start", func() { rt.Start(func(th *Thread) {}) })
		mustPanic("Resume(0)", func() { sess.Resume(0) })
		sess.Resume(2)
		sess.Finish()
		sess.Finish() // idempotent
		mustPanic("Resume after Finish", func() { sess.Resume(1) })
		mustPanic("NextStep outside any region", func() { rt.threads[0].NextStep() })

		var stepped atomic.Int64
		rt.Run(func(th *Thread) {
			for th.NextStep() {
				stepped.Add(1)
			}
		})
		if got := stepped.Load(); got != 0 {
			t.Errorf("a Run region took %d steps, want 0", got)
		}
	})
}

// TestSessionRunAfterFinish: the runtime is reusable for plain Run
// regions after a session completes (clocks continue, like repeated
// Run).
func TestSessionRunAfterFinish(t *testing.T) {
	rt := NewRuntime(machine.Default(2))
	sess := rt.Start(func(th *Thread) {
		for th.NextStep() {
			th.Charge(1e-6)
		}
	})
	sess.Resume(3)
	sess.Finish()
	before := rt.ThreadNow(0)
	rt.Run(func(th *Thread) { th.Charge(2e-6) })
	if after := rt.ThreadNow(0); after <= before {
		t.Fatalf("clock did not continue across session->Run: %v -> %v", before, after)
	}
}

// TestSessionManyThreadsStress drives a 64-thread session through many
// tiny resumes; catches bookkeeping drift in the gate (arrival-list
// reuse, the first arriver's baton, heap re-insertion).
func TestSessionManyThreadsStress(t *testing.T) {
	const n, rounds = 64, 20
	t.Run("simulate", func(t *testing.T) {
		rt := NewRuntime(machine.Default(n))
		var counts [n]int64
		sess := rt.Start(func(th *Thread) {
			th.Barrier()
			for th.NextStep() {
				th.Charge(float64(th.ID()+1) * 1e-8)
				th.Barrier()
				counts[th.ID()]++
			}
		})
		want := int64(0)
		for r := 0; r < rounds; r++ {
			k := r%3 + 1
			sess.Resume(k)
			want += int64(k)
			if counts[n-1] != want {
				t.Fatalf("round %d: thread %d at %d steps, want %d", r, n-1, counts[n-1], want)
			}
		}
		sess.Finish()
		for i, c := range counts {
			if c != want {
				t.Fatalf("thread %d ran %d steps, want %d", i, c, want)
			}
		}
	})
}

// TestSessionThreadExitsEarly: a thread that returns from its body while
// its peers keep stepping stops being live, and the pause completes
// without it. A later barrier that the exited thread never reaches is
// still reported as a deadlock.
func TestSessionThreadExitsEarly(t *testing.T) {
	t.Run("simulate", func(t *testing.T) {
		rt := NewRuntime(machine.Default(3))
		var counts [3]int64
		sess := rt.Start(func(th *Thread) {
			for th.NextStep() {
				counts[th.ID()]++
				if th.ID() == 2 {
					return
				}
			}
		})
		raised := make(chan any, 1)
		go func() {
			defer func() { raised <- recover() }()
			sess.Resume(2)
			sess.Resume(2)
			sess.Finish()
		}()
		select {
		case r := <-raised:
			if r != nil {
				t.Fatalf("a session with an exited thread panicked: %v", r)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Resume hangs on a session with an exited thread")
		}
		if counts != [3]int64{4, 4, 1} {
			t.Fatalf("step counts %v, want [4 4 1]", counts)
		}
	})

	rt := NewRuntime(machine.Default(2))
	sess := rt.Start(func(th *Thread) {
		for th.NextStep() {
			if th.ID() == 1 && th.steps == 2 {
				return
			}
			th.Barrier()
		}
	})
	sess.Resume(1)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "deadlock") {
			t.Fatalf("panic is not the deadlock report: %v", msg)
		}
	}()
	sess.Resume(1)
	t.Fatal("Resume returned although thread 0 waits at a barrier thread 1 left")
}

// TestSessionDeadlockDetected: a broken SPMD body where one thread
// parks at the gate while a peer waits at a barrier must fail loudly
// (cooperative backend), not hang.
func TestSessionDeadlockDetected(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := NewRuntime(machine.Default(2))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no deadlock panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "deadlock") {
			t.Fatalf("panic is not the deadlock report: %v", msg)
		}
		expectUnwound(t, before)
	}()
	sess := rt.Start(func(th *Thread) {
		for th.NextStep() {
			if th.ID() == 0 {
				th.Barrier() // thread 1 never joins: it re-parks at the gate
			}
		}
	})
	sess.Resume(1)
	t.Fatal("Resume returned from a deadlocked region")
}
