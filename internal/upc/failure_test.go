package upc

import (
	"strings"
	"testing"

	"upcbh/internal/machine"
)

// Misuse of the runtime must fail loudly, not corrupt state.

func expectPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("expected panic containing %q", substr)
			return
		}
		var msg string
		switch v := r.(type) {
		case string:
			msg = v
		case error:
			msg = v.Error()
		default:
			t.Fatalf("unexpected panic type %T", r)
		}
		if !strings.Contains(msg, substr) {
			t.Errorf("panic %q does not mention %q", msg, substr)
		}
	}()
	fn()
}

func TestAllocNonPositivePanics(t *testing.T) {
	rt := testRuntime(1)
	h := NewHeap[int](rt, 1024)
	expectPanic(t, "non-positive", func() {
		rt.Run(func(th *Thread) { h.Alloc(th, 0) })
	})
}

func TestGatherShortDstPanics(t *testing.T) {
	rt := testRuntime(1)
	h := NewHeap[int](rt, 1024)
	expectPanic(t, "destination shorter", func() {
		rt.Run(func(th *Thread) {
			r := h.Alloc(th, 4)
			h.GatherAsync(th, []Ref{r, {Thr: 0, Idx: r.Idx + 1}}, make([]int, 1))
		})
	})
}

func TestVecReduceLengthMismatchPanics(t *testing.T) {
	rt := testRuntime(2)
	expectPanic(t, "mismatched lengths", func() {
		rt.Run(func(th *Thread) {
			v := make([]float64, 2+th.ID()) // different length per thread
			AllReduceVecF64(th, v, OpSum)
		})
	})
}

func TestAllToAllWrongRowsPanics(t *testing.T) {
	rt := testRuntime(2)
	expectPanic(t, "THREADS rows", func() {
		rt.Run(func(th *Thread) {
			AllToAll(th, make([][]int, 1), nil)
		})
	})
}

func TestLocalSliceSpanPanics(t *testing.T) {
	rt := testRuntime(1)
	h := NewHeap[int](rt, 1024) // chunk = 1024
	expectPanic(t, "spans chunks", func() {
		rt.Run(func(th *Thread) {
			r := h.Alloc(th, 3000)
			h.LocalSlice(th, r, 3000)
		})
	})
}

func TestPoisonAbortsBarrierWaiters(t *testing.T) {
	rt := testRuntime(4)
	expectPanic(t, "panicked", func() {
		rt.Run(func(th *Thread) {
			if th.ID() == 0 {
				panic("original failure")
			}
			th.Barrier() // must not hang
		})
	})
}

func TestPoisonAbortsCollectiveWaiters(t *testing.T) {
	rt := testRuntime(4)
	expectPanic(t, "original failure", func() {
		rt.Run(func(th *Thread) {
			if th.ID() == 3 {
				panic("original failure")
			}
			AllReduceF64(th, 1, OpSum) // must not hang
		})
	})
}

func TestPoisonAbortsLockWaiters(t *testing.T) {
	rt := testRuntime(2)
	lk := rt.NewLock(0)
	expectPanic(t, "original failure", func() {
		rt.Run(func(th *Thread) {
			if th.ID() == 0 {
				lk.Acquire(th)
				th.Barrier() // rendezvous so thread 1 is queued behind the lock
				panic("original failure")
			}
			th.Barrier()
			lk.Acquire(th) // held by the dying thread: must abort, not hang
		})
	})
}

func TestRuntimeReusableAcrossRuns(t *testing.T) {
	rt := NewRuntime(machine.Default(4))
	h := NewHeap[int](rt, 1024)
	rt.Run(func(th *Thread) {
		r := h.Alloc(th, 1)
		*h.Local(th, r) = th.ID()
	})
	// Second SPMD region over the same runtime: state persists.
	rt.Run(func(th *Thread) {
		if got := *h.Local(th, Ref{Thr: int32(th.ID()), Idx: 0}); got != th.ID() {
			t.Errorf("thread %d: heap state lost across runs: %d", th.ID(), got)
		}
		th.Barrier()
	})
}
