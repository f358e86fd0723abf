package upc

import (
	"testing"

	"upcbh/internal/machine"
)

// TestLedgerApplyMatchesDirect: gets, puts, charges, more than 64
// outstanding gathers and their waits, recorded and applied, leave the
// clock, Stats (GatherSrcHist included) and every NIC's availAt
// bit-equal to the same calls made directly. The ledger records two
// rounds, the first on the zero Ledger and the second after a Reset,
// each opening with a charge of the amount the round before closed on.
func TestLedgerApplyMatchesDirect(t *testing.T) {
	run := func(record bool) (float64, Stats, []float64) {
		rt := NewRuntime(machine.MustNew(8, 4, false, machine.Power5()))
		h := NewHeap[[8]float64](rt, 1024)
		var clock float64
		var stats Stats
		rt.Run(func(th *Thread) {
			h.Alloc(th, 8)
			th.Barrier()
			if th.ID() != 1 {
				return
			}
			var l Ledger
			charge := func(sec float64, n int) {
				if record {
					l.Charge(sec, n)
					return
				}
				for range n {
					th.Charge(sec)
				}
			}
			for round := range 2 {
				if round > 0 {
					l.Reset()
				}
				charge(3e-9, 2)
				const gathers = 70
				var hs [gathers]Handle
				var ords [gathers]int32
				for i := range gathers {
					r := Ref{Thr: int32(i % 8), Idx: int32(i % 8)}
					refs := []Ref{r, {Thr: int32((i + 3) % 8), Idx: 1}, r}
					if record {
						l.Get(r, 24)
					} else {
						h.ReadView(th, r, 24)
					}
					charge(1e-8, i%3)
					if record {
						l.Put(r, 40)
					} else {
						h.TouchPut(th, r, 40)
					}
					charge(3e-9, 1)
					if record {
						ords[i] = l.Gather(refs, 32)
					} else {
						hs[i] = h.GatherAsyncBytes(th, refs, 32)
					}
				}
				for i := gathers - 1; i >= 0; i-- {
					if record {
						l.Wait(ords[i])
					} else {
						th.WaitSync(&hs[i])
					}
				}
				charge(3e-9, 1)
				if record {
					th.Apply(&l)
				}
			}
			clock, stats = th.Now(), th.Stats()
		})
		avail := make([]float64, len(rt.nic))
		for i := range rt.nic {
			avail[i] = rt.nic[i].availAt
		}
		return clock, stats, avail
	}
	c0, s0, n0 := run(false)
	c1, s1, n1 := run(true)
	if c0 != c1 || s0 != s1 {
		t.Errorf("applied ledger: clock %v stats %+v; direct calls: clock %v stats %+v", c1, s1, c0, s0)
	}
	for i := range n0 {
		if n0[i] != n1[i] {
			t.Errorf("NIC %d: applied availAt %v, direct %v", i, n1[i], n0[i])
		}
	}
	if s0.GatherReqs != 140 {
		t.Errorf("GatherReqs = %d, want 140", s0.GatherReqs)
	}
}
