package upc

import (
	"testing"

	"upcbh/internal/machine"
)

func nativeRuntime(p int) *Runtime {
	return NewRuntimeMode(machine.Default(p), ModeNative)
}

func TestParseExecMode(t *testing.T) {
	for _, m := range []ExecMode{ModeSimulate, ModeNative} {
		got, err := ParseExecMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseExecMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseExecMode("warp9"); err == nil {
		t.Error("ParseExecMode accepted a bogus mode")
	}
}

func TestRuntimeMode(t *testing.T) {
	if m := NewRuntime(machine.Default(2)).Mode(); m != ModeSimulate {
		t.Errorf("default runtime mode = %v", m)
	}
	if m := nativeRuntime(2).Mode(); m != ModeNative {
		t.Errorf("native runtime mode = %v", m)
	}
}

// TestNativeChargesAreFree: in ModeNative, cost charges must not
// influence reported time beyond the real wall clock. A million charged
// "seconds" should leave the clock at sub-second wall time.
func TestNativeChargesAreFree(t *testing.T) {
	rt := nativeRuntime(2)
	rt.Run(func(th *Thread) {
		for i := 0; i < 1000; i++ {
			th.Charge(1000)
			th.ChargeRaw(1000)
		}
		th.AdvanceTo(1e12)
	})
	if c := rt.MaxClock(); c > 60 {
		t.Errorf("native clock %g reflects simulated charges, want wall time", c)
	}
}

// TestNativeNowMonotonic: the wall clock must be non-decreasing within a
// thread and positive after real work.
func TestNativeNowMonotonic(t *testing.T) {
	rt := nativeRuntime(4)
	rt.Run(func(th *Thread) {
		t0 := th.Now()
		acc := 0.0
		for i := 0; i < 100000; i++ {
			acc += float64(i)
		}
		_ = acc
		t1 := th.Now()
		if t1 < t0 {
			t.Errorf("thread %d: Now went backwards: %g -> %g", th.ID(), t0, t1)
		}
		if t1 < 0 {
			t.Errorf("thread %d: negative wall time %g", th.ID(), t1)
		}
	})
}

// TestNativeHeapTransfers: data movement is mode-independent — remote
// gets, puts, and gathers must move real bytes in ModeNative.
func TestNativeHeapTransfers(t *testing.T) {
	const p = 4
	rt := nativeRuntime(p)
	h := NewHeap[int](rt, 1024)
	rt.Run(func(th *Thread) {
		r := h.Alloc(th, 1)
		h.Put(th, r, 100+th.ID())
		th.Barrier()
		// Read every peer's value remotely.
		for i := 0; i < p; i++ {
			if got := h.Get(th, Ref{Thr: int32(i), Idx: 0}); got != 100+i {
				t.Errorf("thread %d: Get(%d) = %d, want %d", th.ID(), i, got, 100+i)
			}
		}
		// Gather them all at once.
		refs := make([]Ref, p)
		for i := range refs {
			refs[i] = Ref{Thr: int32(i), Idx: 0}
		}
		dst := make([]int, p)
		hd := h.GatherAsync(th, refs, dst)
		if !th.TrySync(hd) {
			t.Errorf("thread %d: native TrySync should complete immediately", th.ID())
		}
		th.WaitSync(hd)
		for i, v := range dst {
			if v != 100+i {
				t.Errorf("thread %d: gather[%d] = %d, want %d", th.ID(), i, v, 100+i)
			}
		}
	})
}

// TestNativeLockMutualExclusion: the lock must provide real mutual
// exclusion (not just simulated serialization) — concurrent unprotected
// increments would be lost (and flagged by the race detector).
func TestNativeLockMutualExclusion(t *testing.T) {
	const p, iters = 8, 2000
	rt := nativeRuntime(p)
	lk := rt.NewLock(0)
	counter := 0
	rt.Run(func(th *Thread) {
		for i := 0; i < iters; i++ {
			lk.Acquire(th)
			counter++
			lk.Release(th)
		}
	})
	if counter != p*iters {
		t.Errorf("counter = %d, want %d: lock failed to exclude", counter, p*iters)
	}
}

// TestNewLockArrayAllocs pins what a session's lock array costs to
// create: the locks are one slab, and only the native backend, whose
// Acquire takes a token from it, makes each lock's channel.
func TestNewLockArrayAllocs(t *testing.T) {
	const n = 256
	for _, tc := range []struct {
		mode ExecMode
		want float64
	}{
		{ModeSimulate, 2},   // the LockArray and the slab
		{ModeNative, 2 + n}, // plus one channel per lock
	} {
		rt := NewRuntimeMode(machine.Default(4), tc.mode)
		var la *LockArray
		if got := testing.AllocsPerRun(10, func() { la = rt.NewLockArray(n) }); got != tc.want {
			t.Errorf("%v: NewLockArray(%d) made %.0f allocations, want %.0f", tc.mode, n, got, tc.want)
		}
		if la.Len() != n || la.ForRef(Ref{Thr: 1, Idx: 2}).home >= 4 {
			t.Errorf("%v: malformed lock array", tc.mode)
		}
	}
}

// TestNativeCollectives: reductions and broadcasts must still combine
// real values under the native backend.
func TestNativeCollectives(t *testing.T) {
	const p = 4
	rt := nativeRuntime(p)
	rt.Run(func(th *Thread) {
		if sum := AllReduceF64(th, float64(th.ID()+1), OpSum); sum != 10 {
			t.Errorf("thread %d: allreduce sum = %g, want 10", th.ID(), sum)
		}
		vec := AllReduceVecF64(th, []float64{float64(th.ID()), 1}, OpMax)
		if vec[0] != p-1 || vec[1] != 1 {
			t.Errorf("thread %d: vector reduce = %v", th.ID(), vec)
		}
		if v := Broadcast(th, 2, th.ID()*11); v != 22 {
			t.Errorf("thread %d: broadcast = %d, want 22", th.ID(), v)
		}
		all := AllGather(th, th.ID())
		for i, v := range all {
			if v != i {
				t.Errorf("thread %d: allgather[%d] = %d", th.ID(), i, v)
			}
		}
	})
}

// TestNativeResetClocks: resetting restarts the wall-clock epoch.
func TestNativeResetClocks(t *testing.T) {
	rt := nativeRuntime(2)
	rt.Run(func(th *Thread) {
		acc := 0.0
		for i := 0; i < 200000; i++ {
			acc += float64(i)
		}
		_ = acc
	})
	before := rt.MaxClock()
	rt.ResetClocks()
	if after := rt.MaxClock(); after > before && before > 0 {
		// after is measured immediately after the reset; it must be (near)
		// zero relative to the pre-reset elapsed time.
		t.Errorf("clock after reset (%g) exceeds pre-reset elapsed (%g)", after, before)
	}
	if st := rt.TotalStats(); st.Msgs != 0 || st.Barriers != 0 {
		t.Errorf("stats not cleared by reset: %+v", st)
	}
}

// TestSimulateUnaffectedBySeam: a sanity pin that the simulate backend
// still charges remote accesses orders of magnitude above local ones
// after the cost-model extraction.
func TestSimulateUnaffectedBySeam(t *testing.T) {
	rt := NewRuntime(machine.Default(2))
	h := NewHeap[[64]byte](rt, 1024)
	rt.Run(func(th *Thread) {
		h.Alloc(th, 1)
		th.Barrier()
		before := th.Now()
		h.Get(th, Ref{Thr: int32(th.ID()), Idx: 0})
		localCost := th.Now() - before
		before = th.Now()
		h.Get(th, Ref{Thr: int32(1 - th.ID()), Idx: 0})
		remoteCost := th.Now() - before
		if remoteCost < 100*localCost {
			t.Errorf("thread %d: remote %g vs local %g: cost model gone", th.ID(), remoteCost, localCost)
		}
	})
}
