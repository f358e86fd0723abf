package upc

import (
	"sync/atomic"
	"testing"

	"upcbh/internal/machine"
)

func testRuntime(threads int) *Runtime {
	return NewRuntime(machine.Default(threads))
}

// maxClock returns the latest Thread.Now over all threads.
func maxClock(rt *Runtime) float64 {
	var mx float64
	for _, t := range rt.threads {
		mx = max(mx, t.Now())
	}
	return mx
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
	rt.Run(func(th *Thread) { h.Get(th, Ref{Thr: -1, Idx: -1}) })
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
		hd := h.GatherAsync(th, []Ref{{1, 0}})
		if th.Now() >= hd.CompleteAt {
			t.Error("gather complete immediately after issue")
		}
		// Overlap: local compute advances the clock past completion.
		th.ChargeRaw(1) // 1 simulated second, far beyond the transfer
		if th.Now() < hd.CompleteAt {
			t.Error("gather not complete after long local work")
		}
		before := th.Now()
		th.WaitSync(&hd)
		if th.Now() != before {
			t.Error("WaitSync advanced the clock past an already-complete handle")
		}
		if v := *h.Raw(Ref{1, 0}); v != 1 {
			t.Errorf("async data read at sync = %v", v)
		}
	})
}

// TestGatherAsyncAccountsWithoutCopy pins the async gathers' accounting
// to the figures the copying gathers produced for the same refs on a
// two-node machine (mixed local, on-node and off-node sources, a
// whole-element and a prefix gather in flight together): the clock after
// issue and after sync, each handle, and the Msgs, Bytes, request and
// source-histogram deltas. The heap must read back unchanged.
func TestGatherAsyncAccountsWithoutCopy(t *testing.T) {
	rt := NewRuntime(machine.MustNew(8, 4, false, machine.Power5()))
	h := NewHeap[[8]float64](rt, 1024)
	rt.Run(func(th *Thread) {
		r := h.Alloc(th, 4)
		for i := 0; i < 4; i++ {
			h.Local(th, Ref{Thr: int32(th.ID()), Idx: r.Idx + int32(i)})[0] = float64(th.ID()*10 + i)
		}
		th.Barrier()
		if th.ID() != 1 {
			return
		}
		th.ChargeRaw(3e-6)
		refs := []Ref{{5, 0}, {1, 2}, {0, 1}, {5, 3}, {6, 0}, {0, 0}, {2, 1}}
		var before [8][4][8]float64
		for thr := range before {
			for i := range before[thr] {
				before[thr][i] = *h.Raw(Ref{int32(thr), int32(i)})
			}
		}
		s0 := th.Stats()
		if c := th.Now(); c != 0.000618 {
			t.Errorf("clock before issue = %v", c)
		}
		hc := h.GatherAsync(th, refs)
		hb := h.GatherAsyncBytes(th, refs[2:], 16)
		d := th.Stats().Delta(s0)
		if c := th.Now(); c != 0.0018300159999999996 {
			t.Errorf("clock after issue = %v", c)
		}
		if want := (Handle{CompleteAt: 0.001824528, Refs: 7, Sources: 4}); hc != want {
			t.Errorf("whole-element handle = %+v, want %+v", hc, want)
		}
		if want := (Handle{CompleteAt: 0.0024301439999999995, Refs: 5, Sources: 4}); hb != want {
			t.Errorf("prefix handle = %+v, want %+v", hb, want)
		}
		if d.Msgs != 8 || d.Bytes != 464 || d.GatherReqs != 2 || d.GatherSrcHist != [9]uint64{4: 2} {
			t.Errorf("msgs %d bytes %d reqs %d hist %v, want 8, 464, 2, [0 0 0 0 2 0 0 0 0]",
				d.Msgs, d.Bytes, d.GatherReqs, d.GatherSrcHist)
		}
		th.WaitSync(&hb)
		th.WaitSync(&hc)
		if c := th.Now(); c != 0.0024301439999999995 {
			t.Errorf("clock after sync = %v", c)
		}
		for thr := range before {
			for i := range before[thr] {
				if got := *h.Raw(Ref{int32(thr), int32(i)}); got != before[thr][i] {
					t.Errorf("gather wrote element %d:%d: %v, was %v", thr, i, got, before[thr][i])
				}
			}
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
		return maxClock(rt)
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
		h.PutBytes(th, Ref{Thr: int32(1 - th.ID()), Idx: 1}, 8, func(v *int) { *v = 9 })
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
		return maxClock(rt)
	}
	if c2, c16 := cost(2), cost(16); c16 < c2*2 {
		t.Errorf("hot-spot did not serialize: 16 threads %g vs 2 threads %g", c16, c2)
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
