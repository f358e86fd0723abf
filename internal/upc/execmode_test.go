package upc

import (
	"fmt"
	"runtime"
	"strings"
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
	if c := maxClock(rt); c > 60 {
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

// TestNewLockArrayAllocs pins what a session's lock array costs to
// create: the LockArray and one slab of locks, nothing per lock.
func TestNewLockArrayAllocs(t *testing.T) {
	const n = 256
	rt := NewRuntime(machine.Default(4))
	var la *LockArray
	if got := testing.AllocsPerRun(10, func() { la = rt.NewLockArray(n) }); got != 2 {
		t.Errorf("NewLockArray(%d) made %.0f allocations, want 2", n, got)
	}
	if len(la.locks) != n || la.ForRef(Ref{Thr: 1, Idx: 2}).home >= 4 {
		t.Error("malformed lock array")
	}
}

// TestNewHeapFootprint pins what a heap costs to create: its shard
// headers, O(threads) bytes. Chunk tables start empty and grow with their
// shard, so no shard pays for maxChunks entries it may never reach.
func TestNewHeapFootprint(t *testing.T) {
	rt := testRuntime(112)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h := NewHeap[[64]byte](rt, 1024)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 64<<10 {
		t.Errorf("NewHeap on %d threads allocated %d bytes, want <= 64 KiB", rt.Threads(), got)
	}
	runtime.KeepAlive(h)
}

// TestNativeRejectsSimulateOnlyOps: heaps, locks, collectives and
// spin-waits exist only under the cooperative scheduler. On a native runtime each
// panics with the documented message — and inside a multi-thread Run that
// panic poisons the runtime, so the peers parked in the barrier abort and
// Run re-raises it instead of hanging.
func TestNativeRejectsSimulateOnlyOps(t *testing.T) {
	const want = "on a ModeNative runtime: heaps, locks, collectives and spin-waits exist only under ModeSimulate"
	raised := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	rt := nativeRuntime(4)
	for op, f := range map[string]func(){
		"NewHeap":      func() { NewHeap[int](rt, 1024) },
		"NewLock":      func() { rt.NewLock(0) },
		"NewLockArray": func() { rt.NewLockArray(0) },
		"NewScalar":    func() { NewScalar(rt, 1.0) },
	} {
		if msg := raised(f); !strings.Contains(msg, "upc: "+op+" "+want) {
			t.Errorf("%s on a native runtime raised %q", op, msg)
		}
	}
	for op, f := range map[string]func(th *Thread){
		"AllReduceF64":    func(th *Thread) { AllReduceF64(th, 1, OpSum) },
		"AllReduceVecF64": func(th *Thread) { AllReduceVecF64(th, []float64{1}, OpMax) },
		"Broadcast":       func(th *Thread) { Broadcast(th, 0, th.ID()) },
		"AllGather":       func(th *Thread) { AllGather(th, th.ID()) },
		"AllToAll":        func(th *Thread) { AllToAll(th, make([][]int, th.P()), nil) },
		"SpinYield":       func(th *Thread) { th.SpinYield() },
	} {
		rt := nativeRuntime(4)
		msg := raised(func() {
			rt.Run(func(th *Thread) {
				if th.ID() == 2 {
					f(th)
				}
				th.Barrier()
			})
		})
		if !strings.Contains(msg, "upc: "+op+" "+want) {
			t.Errorf("%s inside a native Run raised %q", op, msg)
		}
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
