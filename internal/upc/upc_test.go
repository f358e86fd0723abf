package upc

import (
	"sync/atomic"
	"testing"

	"upcbh/internal/machine"
)

func testRuntime(threads int) *Runtime {
	return NewRuntime(machine.Default(threads))
}

func TestRunSPMD(t *testing.T) {
	rt := testRuntime(8)
	var count atomic.Int64
	seen := make([]bool, 8)
	rt.Run(func(th *Thread) {
		count.Add(1)
		seen[th.ID()] = true
		if th.P() != 8 {
			t.Errorf("P() = %d", th.P())
		}
	})
	if count.Load() != 8 {
		t.Fatalf("ran %d threads", count.Load())
	}
	for i, s := range seen {
		if !s {
			t.Errorf("thread %d never ran", i)
		}
	}
}

func TestRunPanicPropagates(t *testing.T) {
	rt := testRuntime(4)
	defer func() {
		if recover() == nil {
			t.Error("panic in thread did not propagate")
		}
	}()
	rt.Run(func(th *Thread) {
		if th.ID() == 2 {
			panic("boom")
		}
	})
}

func TestBarrierAlignsClocks(t *testing.T) {
	rt := testRuntime(4)
	rt.Run(func(th *Thread) {
		th.ChargeRaw(float64(th.ID()) * 1e-3) // skewed clocks
		th.Barrier()
		if th.Now() < 3e-3 {
			t.Errorf("thread %d clock %g below max participant", th.ID(), th.Now())
		}
		base := th.Now()
		th.Barrier()
		if th.Now() <= base {
			t.Errorf("barrier cost not charged")
		}
	})
}

func TestHeapLocalRemoteCosts(t *testing.T) {
	rt := testRuntime(2)
	h := NewHeap[[8]float64](rt, 1024)
	rt.Run(func(th *Thread) {
		r := h.Alloc(th, 4)
		v := h.Local(th, r)
		v[0] = float64(th.ID() + 1)
		th.Barrier()

		before := th.Now()
		_ = h.Get(th, Ref{Thr: int32(th.ID()), Idx: r.Idx})
		localCost := th.Now() - before

		before = th.Now()
		got := h.Get(th, Ref{Thr: int32(1 - th.ID()), Idx: 0})
		remoteCost := th.Now() - before

		if got[0] != float64(2-th.ID()) {
			t.Errorf("thread %d read %v from neighbour", th.ID(), got[0])
		}
		if remoteCost < 10*localCost {
			t.Errorf("remote get (%g) should dwarf local get (%g)", remoteCost, localCost)
		}
	})
}

func TestLocalPanicsOnRemote(t *testing.T) {
	rt := testRuntime(2)
	h := NewHeap[int](rt, 1024)
	defer func() {
		if recover() == nil {
			t.Error("Local() cast of remote ref did not panic")
		}
	}()
	rt.Run(func(th *Thread) {
		h.Alloc(th, 1)
		th.Barrier()
		if th.ID() == 1 {
			h.Local(th, Ref{Thr: 0, Idx: 0}) // illegal cast
		}
	})
}

func TestNilDerefPanics(t *testing.T) {
	rt := testRuntime(1)
	h := NewHeap[int](rt, 1024)
	defer func() {
		if recover() == nil {
			t.Error("nil deref did not panic")
		}
	}()
	rt.Run(func(th *Thread) { h.Get(th, NilRef) })
}

func TestAllocContiguityAndReset(t *testing.T) {
	rt := testRuntime(1)
	h := NewHeap[int](rt, 1024)
	rt.Run(func(th *Thread) {
		a := h.Alloc(th, 10)
		b := h.Alloc(th, 2000) // spans chunks
		if h.Len(0) < 2010 {
			t.Errorf("Len = %d", h.Len(0))
		}
		for i := 0; i < 2000; i++ {
			*h.Local(th, Ref{Thr: 0, Idx: b.Idx + int32(i)}) = i
		}
		for i := 0; i < 2000; i++ {
			if *h.Local(th, Ref{Thr: 0, Idx: b.Idx + int32(i)}) != i {
				t.Fatalf("element %d corrupted", i)
			}
		}
		_ = a
		h.Reset(th)
		if h.Len(0) != 0 {
			t.Errorf("Len after Reset = %d", h.Len(0))
		}
		c := h.Alloc(th, 5)
		if c.Idx != 0 {
			t.Errorf("post-reset alloc at %d", c.Idx)
		}
	})
}

func TestGatherAggregatesBySource(t *testing.T) {
	rt := testRuntime(4)
	h := NewHeap[float64](rt, 1024)
	rt.Run(func(th *Thread) {
		r := h.Alloc(th, 8)
		for i := 0; i < 8; i++ {
			*h.Local(th, Ref{Thr: int32(th.ID()), Idx: r.Idx + int32(i)}) = float64(th.ID()*100 + i)
		}
		th.Barrier()
		if th.ID() != 0 {
			return
		}
		// Gather 6 elements from one remote source: must count as a
		// single-source request and cost about one round trip.
		refs := []Ref{{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5}}
		dst := make([]float64, 6)
		before := th.Now()
		h.Gather(th, refs, dst)
		oneSrc := th.Now() - before
		for i, v := range dst {
			if v != float64(100+i) {
				t.Errorf("gather element %d = %v", i, v)
			}
		}
		st := th.Stats()
		if st.GatherSrcHist[1] != 1 {
			t.Errorf("single-source hist = %v", st.GatherSrcHist)
		}

		// Same volume from 3 sources: more messages, more sender time.
		refs = []Ref{{1, 0}, {2, 0}, {3, 0}, {1, 1}, {2, 1}, {3, 1}}
		before = th.Now()
		h.Gather(th, refs, dst)
		threeSrc := th.Now() - before
		if threeSrc <= oneSrc {
			t.Errorf("3-source gather (%g) not costlier than 1-source (%g)", threeSrc, oneSrc)
		}
	})
}

func TestGatherAsyncOverlap(t *testing.T) {
	rt := testRuntime(2)
	h := NewHeap[float64](rt, 1024)
	rt.Run(func(th *Thread) {
		r := h.Alloc(th, 4)
		*h.Local(th, r) = float64(th.ID())
		th.Barrier()
		if th.ID() != 0 {
			return
		}
		dst := make([]float64, 1)
		hd := h.GatherAsync(th, []Ref{{1, 0}}, dst)
		if th.TrySync(&hd) {
			t.Error("gather complete immediately after issue")
		}
		// Overlap: local compute advances the clock past completion.
		th.ChargeRaw(1) // 1 simulated second, far beyond the transfer
		if !th.TrySync(&hd) {
			t.Error("gather not complete after long local work")
		}
		before := th.Now()
		th.WaitSync(&hd)
		if th.Now() != before {
			t.Error("WaitSync advanced the clock past an already-complete handle")
		}
		if dst[0] != 1 {
			t.Errorf("async data = %v", dst[0])
		}
	})
}

func TestLockSerializesSimTime(t *testing.T) {
	rt := testRuntime(4)
	lk := rt.NewLock(0)
	work := NewScalar(rt, 0.0)
	rt.Run(func(th *Thread) {
		lk.Acquire(th)
		work.Write(th, work.Peek()+1)
		th.ChargeRaw(1e-3) // hold the lock for 1ms of simulated time
		lk.Release(th)
		th.Barrier()
		// 4 threads serialized through 1ms critical sections: the
		// aligned clock must exceed 4ms.
		if th.Now() < 4e-3 {
			t.Errorf("clock %g: critical sections did not serialize", th.Now())
		}
	})
	if work.Peek() != 4 {
		t.Errorf("lock-protected counter = %v", work.Peek())
	}
}

func TestScalarHotspot(t *testing.T) {
	rt := testRuntime(8)
	s := NewScalar(rt, 3.14)
	rt.Run(func(th *Thread) {
		if th.ID() == 0 {
			// Thread 0 reads its own scalar cheaply.
			before := th.Now()
			for i := 0; i < 100; i++ {
				_ = s.Read(th)
			}
			if cost := th.Now() - before; cost > 1e-4 {
				t.Errorf("local scalar reads cost %g", cost)
			}
			return
		}
		before := th.Now()
		for i := 0; i < 100; i++ {
			if v := s.Read(th); v != 3.14 {
				t.Errorf("scalar read = %v", v)
			}
		}
		if cost := th.Now() - before; cost < 100*12e-6 {
			t.Errorf("remote scalar reads cost %g, want >= 100 latencies", cost)
		}
	})
}

func TestCollectives(t *testing.T) {
	rt := testRuntime(6)
	rt.Run(func(th *Thread) {
		me := float64(th.ID())
		if got := AllReduceF64(th, me+1, OpSum); got != 21 {
			t.Errorf("sum = %v", got)
		}
		if got := AllReduceF64(th, me, OpMax); got != 5 {
			t.Errorf("max = %v", got)
		}
		if got := AllReduceF64(th, me, OpMin); got != 0 {
			t.Errorf("min = %v", got)
		}
		vecIn := []float64{me, 1, -me}
		vecOut := AllReduceVecF64(th, vecIn, OpSum)
		if vecOut[0] != 15 || vecOut[1] != 6 || vecOut[2] != -15 {
			t.Errorf("vector reduce = %v", vecOut)
		}
		if &vecOut[0] != &vecIn[0] {
			t.Error("vector reduce did not reduce in place")
		}
		if got := Broadcast(th, 3, th.ID()*10); got != 30 {
			t.Errorf("broadcast = %v", got)
		}
		ag := AllGather(th, th.ID()*2)
		for i, v := range ag {
			if v != i*2 {
				t.Errorf("allgather[%d] = %d", i, v)
			}
		}
	})
}

func TestVectorReduceCheaperThanScalars(t *testing.T) {
	// The §6 observation: one vector reduction of length k costs far
	// less than k scalar reductions.
	run := func(vector bool) float64 {
		rt := testRuntime(8)
		rt.Run(func(th *Thread) {
			vals := make([]float64, 64)
			if vector {
				AllReduceVecF64(th, vals, OpSum)
				return
			}
			for _, v := range vals {
				AllReduceF64(th, v, OpSum)
			}
		})
		return rt.MaxClock()
	}
	v, s := run(true), run(false)
	if s < 10*v {
		t.Errorf("64 scalar reductions (%g) should cost >>10x one vector reduction (%g)", s, v)
	}
}

// TestAllToAll: two rounds, the second into the first's retained
// receive matrix, each delivering exactly what the peers sent that round.
func TestAllToAll(t *testing.T) {
	rt := testRuntime(4)
	rt.Run(func(th *Thread) {
		var recv [][]int
		for round := 0; round < 2; round++ {
			send := make([][]int, 4)
			for j := range send {
				send[j] = []int{round*100 + th.ID()*10 + j}
			}
			prev := recv
			recv = AllToAll(th, send, recv)
			if prev != nil && &recv[0] != &prev[0] {
				t.Error("AllToAll did not reuse the receive matrix")
			}
			for j := range recv {
				if len(recv[j]) != 1 || recv[j][0] != round*100+j*10+th.ID() {
					t.Errorf("round %d: recv[%d] = %v", round, j, recv[j])
				}
			}
		}
	})
}

func TestStatsAggregation(t *testing.T) {
	rt := testRuntime(2)
	h := NewHeap[int](rt, 1024)
	rt.Run(func(th *Thread) {
		h.Alloc(th, 4)
		th.Barrier()
		h.Get(th, Ref{Thr: int32(1 - th.ID()), Idx: 0})
		h.Put(th, Ref{Thr: int32(1 - th.ID()), Idx: 1}, 9)
	})
	st := rt.TotalStats()
	if st.RemoteGets != 2 || st.RemotePuts != 2 {
		t.Errorf("gets/puts = %d/%d", st.RemoteGets, st.RemotePuts)
	}
	if st.Barriers != 2 {
		t.Errorf("barriers = %d", st.Barriers)
	}
	if st.Msgs == 0 || st.Bytes == 0 {
		t.Error("no message traffic recorded")
	}
}

func TestNICHotspotSerializes(t *testing.T) {
	// Many threads hammering thread 0 must serialize at its NIC: the
	// last arrival's latency grows with the number of senders.
	cost := func(p int) float64 {
		rt := testRuntime(p)
		h := NewHeap[[64]byte](rt, 1024)
		rt.Run(func(th *Thread) {
			if th.ID() == 0 {
				h.Alloc(th, 1)
			}
			th.Barrier()
			if th.ID() != 0 {
				for i := 0; i < 50; i++ {
					h.Get(th, Ref{Thr: 0, Idx: 0})
				}
			}
		})
		return rt.MaxClock()
	}
	if c2, c16 := cost(2), cost(16); c16 < c2*2 {
		t.Errorf("hot-spot did not serialize: 16 threads %g vs 2 threads %g", c16, c2)
	}
}

func TestResetClocks(t *testing.T) {
	rt := testRuntime(2)
	rt.Run(func(th *Thread) { th.ChargeRaw(1) })
	if rt.MaxClock() != 1 {
		t.Fatalf("clock = %g", rt.MaxClock())
	}
	rt.ResetClocks()
	if rt.MaxClock() != 0 {
		t.Errorf("clock after reset = %g", rt.MaxClock())
	}
}

func TestLocalSliceContiguity(t *testing.T) {
	rt := testRuntime(1)
	h := NewHeap[int](rt, 4096)
	rt.Run(func(th *Thread) {
		r := h.Alloc(th, 100)
		s := h.LocalSlice(th, r, 100)
		for i := range s {
			s[i] = i * 3
		}
		for i := 0; i < 100; i++ {
			if *h.Local(th, Ref{Thr: 0, Idx: r.Idx + int32(i)}) != i*3 {
				t.Fatalf("LocalSlice not aliased to heap storage at %d", i)
			}
		}
	})
}

func TestPthreadIntraNodeCheaperThanNetwork(t *testing.T) {
	m := machine.MustNew(4, 2, true, machine.Power5())
	rt := NewRuntime(m)
	h := NewHeap[[256]byte](rt, 1024)
	rt.Run(func(th *Thread) {
		h.Alloc(th, 1)
		th.Barrier()
		if th.ID() != 0 {
			return
		}
		before := th.Now()
		h.Get(th, Ref{Thr: 1, Idx: 0}) // same node
		intra := th.Now() - before
		before = th.Now()
		h.Get(th, Ref{Thr: 2, Idx: 0}) // cross node
		inter := th.Now() - before
		if intra >= inter {
			t.Errorf("intra-node (%g) should be cheaper than cross-node (%g)", intra, inter)
		}
	})
}
