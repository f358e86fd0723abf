package upc

// Cache is a per-thread transparent software cache over a Heap, in the
// style of the MuPC runtime cache and the Berkeley UPC caching prototype
// the paper surveys in §8: direct-mapped, line = one element, and —
// to avoid a coherence protocol — invalidated wholesale at every barrier
// ("variables are written back at each synchronization point").
//
// The paper suspects such fully transparent caching cannot match the
// manual caching of §5.3 because of frequent invalidations and the
// difficulty of choosing the caching unit; the ext-cache experiment in
// the harness quantifies exactly that comparison.
//
// A Cache is owned by one thread and must only be used from it.
type Cache[T any] struct {
	h     *Heap[T]
	t     *Thread
	lines []cacheLine[T]
	mask  uint64
}

type cacheLine[T any] struct {
	ref   Ref
	gen   uint64 // barrier generation at fill time
	valid bool
	val   T
}

// NewCache creates a cache of `lines` entries (rounded up to a power of
// two, min 64) for thread t over heap h.
func NewCache[T any](t *Thread, h *Heap[T], lines int) *Cache[T] {
	n := 64
	for n < lines {
		n <<= 1
	}
	return &Cache[T]{
		h:     h,
		t:     t,
		lines: make([]cacheLine[T], n),
		mask:  uint64(n - 1),
	}
}

func (c *Cache[T]) slot(r Ref) *cacheLine[T] {
	hsh := uint64(uint32(r.Thr))*0x9e3779b1 ^ uint64(uint32(r.Idx))*0x85ebca6b
	return &c.lines[hsh&c.mask]
}

// gen returns the current invalidation epoch: the thread's barrier count.
// Any line filled before the last barrier is stale.
func (c *Cache[T]) gen() uint64 { return c.t.stats.Barriers }

// GetBytes models a fine-grained access through the cache. The cache
// operates at whole-element ("logical cache line") granularity, so a hit
// serves any prefix; a miss transfers (and caches) only the requested
// byte prefix — the unit-choice problem §8 describes. Callers should use
// a consistent prefix size per cache, since a hit may otherwise serve a
// shorter line than requested. A hit costs ten plain dereferences; a
// miss is the underlying (charged) remote get. Local-affinity references
// bypass the cache entirely, like a runtime that checks upc_threadof
// first.
func (c *Cache[T]) GetBytes(r Ref, bytes int) T {
	if c.h.IsLocal(c.t, r) {
		return c.h.GetBytes(c.t, r, bytes)
	}
	ln := c.slot(r)
	g := c.gen()
	if ln.valid && ln.ref == r && ln.gen == g {
		c.t.ChargeRaw(10 * c.t.rt.mach.Par.LocalDerefCost)
		return ln.val
	}
	v := c.h.GetBytes(c.t, r, bytes)
	*ln = cacheLine[T]{ref: r, gen: g, valid: true, val: v}
	return v
}
