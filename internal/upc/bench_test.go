package upc

import (
	"fmt"
	"testing"

	"upcbh/internal/machine"
)

// Real (wall-clock) cost of the emulation primitives themselves — the
// overhead the harness pays per modelled operation.

func BenchmarkLocalGet(b *testing.B) {
	rt := NewRuntime(machine.Default(1))
	h := NewHeap[[8]float64](rt, 4096)
	rt.Run(func(t *Thread) {
		r := h.Alloc(t, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = h.Get(t, r)
		}
	})
}

func BenchmarkRemoteGet(b *testing.B) {
	rt := NewRuntime(machine.Default(2))
	h := NewHeap[[8]float64](rt, 4096)
	rt.Run(func(t *Thread) {
		h.Alloc(t, 1)
		t.Barrier()
		if t.ID() != 0 {
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = h.Get(t, Ref{Thr: 1, Idx: 0})
		}
	})
}

func BenchmarkGather64(b *testing.B) {
	rt := NewRuntime(machine.Default(2))
	h := NewHeap[[8]float64](rt, 4096)
	rt.Run(func(t *Thread) {
		h.Alloc(t, 64)
		t.Barrier()
		if t.ID() != 0 {
			return
		}
		refs := make([]Ref, 64)
		for i := range refs {
			refs[i] = Ref{Thr: 1, Idx: int32(i)}
		}
		dst := make([][8]float64, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Gather(t, refs, dst)
		}
	})
}

func BenchmarkBarrier8(b *testing.B) {
	rt := NewRuntime(machine.Default(8))
	b.ResetTimer()
	rt.Run(func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.Barrier()
		}
	})
}

func BenchmarkAllReduceVec8(b *testing.B) {
	rt := NewRuntime(machine.Default(8))
	v := make([]float64, 64)
	b.ResetTimer()
	rt.Run(func(t *Thread) {
		for i := 0; i < b.N; i++ {
			_ = AllReduceVecF64(t, v, OpSum)
		}
	})
}

// BenchmarkRuntimeOps measures the real (wall-clock) cost of the core
// runtime operations under the cooperative scheduler at two small and at
// the paper's maximum thread count — the per-operation overhead every
// simulate-mode experiment pays. Run in CI to track the scheduler's
// perf trajectory. The barrier cases also report ns/handoff: the
// elapsed time over the scheduler's counted handoffs, i.e. the cost of
// one coroutine switch through the scheduler loop plus its share of
// the barrier bookkeeping.
func BenchmarkRuntimeOps(b *testing.B) {
	for _, p := range []int{2, 8, 112} {
		b.Run(fmt.Sprintf("barrier/p=%d", p), func(b *testing.B) {
			rt := NewRuntime(machine.Default(p))
			b.ResetTimer()
			rt.Run(func(t *Thread) {
				for i := 0; i < b.N; i++ {
					t.Barrier()
				}
			})
			if h := rt.SchedStats().Handoffs; h > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(h), "ns/handoff")
			}
		})
		b.Run(fmt.Sprintf("memget/p=%d", p), func(b *testing.B) {
			rt := NewRuntime(machine.Default(p))
			h := NewHeap[[8]float64](rt, 4096)
			rt.Run(func(t *Thread) {
				h.Alloc(t, 1)
				t.Barrier()
				if t.ID() != 0 {
					return
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = h.Get(t, Ref{Thr: int32(1 + i%(p-1)), Idx: 0})
				}
			})
		})
		b.Run(fmt.Sprintf("broadcast/p=%d", p), func(b *testing.B) {
			rt := NewRuntime(machine.Default(p))
			b.ResetTimer()
			rt.Run(func(t *Thread) {
				for i := 0; i < b.N; i++ {
					_ = Broadcast(t, 0, i)
				}
			})
		})
		b.Run(fmt.Sprintf("lock/p=%d", p), func(b *testing.B) {
			rt := NewRuntime(machine.Default(p))
			lk := rt.NewLock(p - 1)
			rt.Run(func(t *Thread) {
				t.Barrier()
				if t.ID() != 0 {
					return
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lk.Acquire(t)
					lk.Release(t)
				}
			})
		})
	}

	// One charged access, at the benchmark workload's thread count and
	// with the force walks' access shapes: a view of an 8-byte slot, of
	// the 40-byte acceptance prefix and of a whole 152-byte cell, from a
	// rotating remote owner, and the §5.1 scalar read from thread 0.
	const p = 16
	type cell [19]float64
	for _, sz := range []struct {
		name  string
		bytes int
	}{{"8B", 8}, {"40B", 40}, {"cellB", 152}} {
		b.Run(fmt.Sprintf("memget-%s/p=%d", sz.name, p), func(b *testing.B) {
			rt := NewRuntime(machine.Default(p))
			h := NewHeap[cell](rt, 4096)
			rt.Run(func(t *Thread) {
				h.Alloc(t, 1)
				t.Barrier()
				if t.ID() != 0 {
					return
				}
				var sink float64
				owner := int32(1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink += h.ReadView(t, Ref{Thr: owner, Idx: 0}, sz.bytes)[0]
					if owner++; owner == p {
						owner = 1
					}
				}
				benchSink = sink
			})
		})
	}
	b.Run(fmt.Sprintf("scalar-read/p=%d", p), func(b *testing.B) {
		rt := NewRuntime(machine.Default(p))
		sc := NewScalar(rt, 1.0)
		rt.Run(func(t *Thread) {
			t.Barrier()
			if t.ID() != 1 {
				return
			}
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += sc.Read(t)
			}
			benchSink = sink
		})
	})
}

var benchSink float64

func BenchmarkCacheHit(b *testing.B) {
	rt := NewRuntime(machine.Default(2))
	h := NewHeap[[8]float64](rt, 4096)
	rt.Run(func(t *Thread) {
		h.Alloc(t, 1)
		t.Barrier()
		if t.ID() != 0 {
			return
		}
		c := NewCache(t, h, 256)
		r := Ref{Thr: 1, Idx: 0}
		_ = c.GetBytes(r, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.GetBytes(r, 64)
		}
	})
}
