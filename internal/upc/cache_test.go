package upc

import (
	"math"
	"testing"

	"upcbh/internal/machine"
)

// cachedGet reads r through c at full element size and returns the value
// and what the read charged the owning thread's clock.
func cachedGet[T any](c *Cache[T], r Ref) (T, float64) {
	before := c.t.Now()
	v := c.GetBytes(r, c.h.elemSize)
	return v, c.t.Now() - before
}

// isHit reports whether a read charged exactly a cache hit's cost: ten
// plain dereferences (a miss pays a remote get, a local read the
// pointer-to-shared dereference instead).
func isHit(th *Thread, charged float64) bool {
	want := 10 * th.rt.mach.Par.LocalDerefCost
	return math.Abs(charged-want) <= 1e-6*want
}

func TestCacheHitsAndCosts(t *testing.T) {
	rt := NewRuntime(machine.Default(2))
	h := NewHeap[[16]float64](rt, 1024)
	rt.Run(func(th *Thread) {
		r := h.Alloc(th, 8)
		v := h.Local(th, r)
		v[0] = float64(th.ID() + 7)
		th.Barrier()
		if th.ID() != 0 {
			return
		}
		c := NewCache(th, h, 256)
		remote := Ref{Thr: 1, Idx: 0}

		got, missCost := cachedGet(c, remote)
		if got[0] != 8 {
			t.Errorf("cached value %v", got[0])
		}
		if isHit(th, missCost) {
			t.Errorf("first read charged a hit (%g)", missCost)
		}
		got, hitCost := cachedGet(c, remote)
		if got[0] != 8 {
			t.Errorf("hit value %v", got[0])
		}
		if !isHit(th, hitCost) {
			t.Errorf("second read charged %g, want a hit", hitCost)
		}
		if hitCost*100 > missCost {
			t.Errorf("hit (%g) should be >>100x cheaper than miss (%g)", hitCost, missCost)
		}
	})
}

func TestCacheBarrierInvalidation(t *testing.T) {
	rt := NewRuntime(machine.Default(2))
	h := NewHeap[int](rt, 1024)
	rt.Run(func(th *Thread) {
		r := h.Alloc(th, 1)
		*h.Local(th, r) = 1
		th.Barrier()
		if th.ID() == 0 {
			c := NewCache(th, h, 64)
			if got, _ := cachedGet(c, Ref{Thr: 1, Idx: 0}); got != 1 {
				t.Errorf("initial value %d", got)
			}
			th.Barrier() // writer updates after this barrier...
			th.Barrier() // ...and before this one
			// A correct barrier-invalidated cache must re-fetch now.
			got, charged := cachedGet(c, Ref{Thr: 1, Idx: 0})
			if got != 2 {
				t.Errorf("post-barrier value %d, want fresh 2", got)
			}
			if isHit(th, charged) {
				t.Errorf("post-barrier read charged a hit (%g), want a miss", charged)
			}
			return
		}
		th.Barrier()
		*h.Local(th, Ref{Thr: 1, Idx: 0}) = 2
		th.Barrier() // publish before the reader's second access
	})
}

func TestCacheLocalBypass(t *testing.T) {
	rt := NewRuntime(machine.Default(1))
	h := NewHeap[int](rt, 1024)
	rt.Run(func(th *Thread) {
		r := h.Alloc(th, 1)
		*h.Local(th, r) = 5
		c := NewCache(th, h, 64)
		for i := 0; i < 2; i++ {
			got, charged := cachedGet(c, r)
			if got != 5 {
				t.Errorf("local read %d", got)
			}
			if want := th.rt.mach.Par.GPtrDerefCost; charged != want {
				t.Errorf("local read %d charged %g, want the heap's local dereference %g", i, charged, want)
			}
		}
	})
}

func TestCacheConflictEviction(t *testing.T) {
	rt := NewRuntime(machine.Default(2))
	h := NewHeap[int](rt, 8192)
	rt.Run(func(th *Thread) {
		r := h.Alloc(th, 4096)
		for i := 0; i < 4096; i++ {
			*h.Local(th, Ref{Thr: int32(th.ID()), Idx: r.Idx + int32(i)}) = i
		}
		th.Barrier()
		if th.ID() != 0 {
			return
		}
		// 64-line cache scanned over 4096 remote elements twice: the
		// second pass cannot be all hits (direct-mapped conflicts).
		c := NewCache(th, h, 64)
		misses := 0
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 4096; i++ {
				got, charged := cachedGet(c, Ref{Thr: 1, Idx: int32(i)})
				if got != i {
					t.Fatalf("element %d = %d", i, got)
				}
				if !isHit(th, charged) {
					misses++
				}
			}
		}
		if misses < 4096 {
			t.Errorf("conflict misses not happening: %d", misses)
		}
	})
}
