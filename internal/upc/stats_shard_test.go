package upc

import "testing"

// The runtime keeps no shared mutexed counters: every Stats counter is a
// per-thread shard owned by its thread (aggregated only after Run or at
// phase boundaries via snapshots/deltas). This test pins that with exact
// deterministic totals at paper scale under the cooperative scheduler;
// core's TestTeamBarrierCountsRace pins the native team's under -race.

func TestStatsPerThreadShardsSimulate112(t *testing.T) {
	run := func() Stats {
		rt := testRuntime(112)
		h := NewHeap[int](rt, 1024)
		lk := rt.NewLock(3)
		rt.Run(func(th *Thread) {
			h.Alloc(th, 2)
			th.Barrier()
			for i := 0; i < 5; i++ {
				h.Get(th, Ref{Thr: int32((th.ID() + 7) % th.P()), Idx: 1})
			}
			lk.Acquire(th)
			lk.Release(th)
			th.Barrier()
		})
		return rt.TotalStats()
	}
	st := run()
	if st.RemoteGets != 112*5 || st.LockAcqs != 112 || st.Barriers != 2*112 {
		t.Fatalf("unexpected totals: %+v", st)
	}
	if st2 := run(); st2 != st {
		t.Fatalf("stats not deterministic across runs: %+v vs %+v", st2, st)
	}
}
