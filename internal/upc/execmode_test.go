package upc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"upcbh/internal/machine"
)

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

// TestNewRuntimeModeSimulateOnly: a Runtime only simulates, so asking
// for any other backend panics with a message that sends the caller to
// core's native team.
func TestNewRuntimeModeSimulateOnly(t *testing.T) {
	if rt := NewRuntimeMode(machine.Default(2), ModeSimulate); rt.Threads() != 2 {
		t.Fatalf("ModeSimulate runtime has %d threads, want 2", rt.Threads())
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "NewRuntimeMode(native)") || !strings.Contains(msg, "internal/core's team") {
			t.Errorf("NewRuntimeMode(ModeNative) raised %q, want a panic naming core's team", msg)
		}
	}()
	NewRuntimeMode(machine.Default(2), ModeNative)
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
