package upc

import (
	"strings"
	"sync/atomic"
	"testing"

	"upcbh/internal/machine"
)

// The cooperative virtual-time scheduler must reproduce the blocking
// semantics of the old goroutine runtime (locks held across barriers,
// spin-wait protocols, two-sided waits) while making every simulated
// clock sequence deterministic.

// TestSchedDeterministicClocks runs a lock/NIC/collective-heavy SPMD
// region repeatedly and demands byte-identical clocks: the whole point
// of lowest-clock baton scheduling.
func TestSchedDeterministicClocks(t *testing.T) {
	run := func() ([]float64, Stats) {
		rt := testRuntime(16)
		h := NewHeap[[4]float64](rt, 1024)
		lk := rt.NewLockArray(8)
		rt.Run(func(th *Thread) {
			r := h.Alloc(th, 64)
			th.Barrier()
			for i := 0; i < 50; i++ {
				src := (th.ID() + i) % th.P()
				_ = h.Get(th, Ref{Thr: int32(src), Idx: int32(i % 64)})
				l := lk.ForRef(Ref{Thr: int32(src), Idx: int32(i)})
				l.Acquire(th)
				th.ChargeRaw(1e-6)
				l.Release(th)
			}
			_ = AllReduceF64(th, float64(th.ID()), OpSum)
			th.Barrier()
			_ = r
		})
		clocks := make([]float64, rt.Threads())
		for i := range clocks {
			clocks[i] = rt.ThreadNow(i)
		}
		return clocks, rt.TotalStats()
	}
	c0, s0 := run()
	for rep := 0; rep < 3; rep++ {
		c, s := run()
		for i := range c {
			if c[i] != c0[i] {
				t.Fatalf("rep %d: thread %d clock %.17g != %.17g", rep, i, c[i], c0[i])
			}
		}
		if s != s0 {
			t.Fatalf("rep %d: stats diverged: %+v vs %+v", rep, s, s0)
		}
	}
}

// TestSchedLockHeldAcrossBarrier pins the blocking-lock path: a lock
// held across a barrier forces the other thread to park on the lock and
// be resumed by the release (the old channel-lock semantics).
func TestSchedLockHeldAcrossBarrier(t *testing.T) {
	rt := testRuntime(2)
	lk := rt.NewLock(0)
	order := make([]int, 0, 4)
	rt.Run(func(th *Thread) {
		if th.ID() == 0 {
			lk.Acquire(th)
			th.Barrier()
			th.ChargeRaw(1e-3)
			order = append(order, 0)
			lk.Release(th)
		} else {
			th.Barrier()
			lk.Acquire(th) // held by thread 0: must park, not deadlock
			order = append(order, 1)
			lk.Release(th)
		}
		th.Barrier()
	})
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("critical sections ran in order %v, want [0 1]", order)
	}
}

// TestSchedDeadlockPanics: the old runtime hung forever when every
// thread blocked on an event that could not happen; the scheduler sees
// the whole wait graph and must fail loudly instead.
func TestSchedDeadlockPanics(t *testing.T) {
	rt := testRuntime(2)
	lk := rt.NewLock(0)
	expectPanic(t, "deadlock", func() {
		rt.Run(func(th *Thread) {
			if th.ID() == 0 {
				lk.Acquire(th)
				th.Barrier() // waits for thread 1, which waits for the lock
				lk.Release(th)
			} else {
				lk.Acquire(th)
				th.Barrier()
				lk.Release(th)
			}
		})
	})
}

// TestSpinYieldConverges: a flag protocol (producer stores, consumer
// spin-polls with SpinYield) must terminate, charge deterministically,
// and align the consumer past the producer's publication.
func TestSpinYieldConverges(t *testing.T) {
	run := func() (float64, uint64) {
		rt := testRuntime(2)
		var flag atomic.Uint32
		var doneAt float64
		var polls uint64
		rt.Run(func(th *Thread) {
			// The consumer is thread 0 so it is scheduled first (equal
			// clocks tie-break by id) and must actually poll.
			if th.ID() == 1 {
				th.ChargeRaw(1e-3) // publish "late" in virtual time
				doneAt = th.Now()
				flag.Store(1)
				return
			}
			for flag.Load() == 0 {
				if th.Poisoned() {
					panic("peer failed")
				}
				polls++
				th.ChargeRaw(1e-5) // a charged poll
				th.SpinYield()
			}
			th.AdvanceTo(doneAt)
		})
		return rt.ThreadNow(0), polls
	}
	c0, p0 := run()
	if p0 == 0 {
		t.Fatal("consumer never had to poll")
	}
	if c0 < 1e-3 {
		t.Fatalf("consumer clock %g not aligned past producer's publication", c0)
	}
	for rep := 0; rep < 3; rep++ {
		if c, p := run(); c != c0 || p != p0 {
			t.Fatalf("spin nondeterministic: clock %g/%g polls %d/%d", c, c0, p, p0)
		}
	}
}

// TestBlockOnWakesWhenReady: BlockOn parks the thread until another
// thread makes the predicate true (the mpi.Recv wait path).
func TestBlockOnWakesWhenReady(t *testing.T) {
	rt := testRuntime(2)
	ch := make(chan int, 4)
	got := 0
	rt.Run(func(th *Thread) {
		// The consumer is thread 0 so it is scheduled first and must
		// genuinely park on the predicate.
		if th.ID() == 1 {
			th.ChargeRaw(1e-3)
			ch <- 42
			return
		}
		th.BlockOn(func() bool { return len(ch) > 0 })
		got = <-ch
	})
	if got != 42 {
		t.Fatalf("BlockOn consumer read %d", got)
	}
}

// TestBlockOnDeadlockPanics: a predicate nobody can satisfy must be
// diagnosed, not hung on.
func TestBlockOnDeadlockPanics(t *testing.T) {
	rt := testRuntime(2)
	expectPanic(t, "deadlock", func() {
		rt.Run(func(th *Thread) {
			if th.ID() == 1 {
				th.BlockOn(func() bool { return false })
			}
		})
	})
}

// TestSchedStatsCount: handoffs and spin yields are counted (the sched
// experiment reports them as the harness's real per-run overhead).
func TestSchedStatsCount(t *testing.T) {
	rt := testRuntime(4)
	rt.Run(func(th *Thread) {
		th.Barrier()
		th.Barrier()
	})
	st := rt.SchedStats()
	if st.Handoffs == 0 {
		t.Fatalf("no handoffs counted: %+v", st)
	}
}

// TestSchedPoisonMessageNamesDeadlockedThreads: failure diagnostics
// should describe the wait graph.
func TestSchedPoisonMessageNamesDeadlockedThreads(t *testing.T) {
	rt := testRuntime(3)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "t1=barrier") && !strings.Contains(msg, "t0=barrier") {
			t.Fatalf("deadlock message %q does not describe blocked threads", msg)
		}
	}()
	rt.Run(func(th *Thread) {
		if th.ID() != 2 {
			th.Barrier() // thread 2 exits without ever arriving
		}
	})
}

// TestCooperativeSingleRunner: under ModeSimulate at most one emulated
// thread executes at any instant — the invariant that lets the runtime
// drop kernel synchronization from the per-operation paths.
func TestCooperativeSingleRunner(t *testing.T) {
	rt := testRuntime(32)
	var running atomic.Int32
	rt.Run(func(th *Thread) {
		for i := 0; i < 20; i++ {
			if n := running.Add(1); n != 1 {
				t.Errorf("%d emulated threads running concurrently", n)
			}
			running.Add(-1)
			th.Barrier()
		}
	})
}

// TestNativeModeUnaffected: ModeNative keeps real parallel goroutines
// and real synchronization (no scheduler).
func TestNativeModeUnaffected(t *testing.T) {
	rt := NewRuntimeMode(machine.Default(4), ModeNative)
	var count atomic.Int32
	rt.Run(func(th *Thread) {
		count.Add(1)
		th.Barrier()
	})
	if count.Load() != 4 {
		t.Fatalf("ran %d native threads", count.Load())
	}
	if st := rt.SchedStats(); st.Handoffs != 0 {
		t.Fatalf("native mode used the cooperative scheduler: %+v", st)
	}
}
