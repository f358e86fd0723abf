package upc

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// chunkPools recycles chunk backings across runtimes: the experiment
// harness builds one Runtime per configuration, and allocating (and,
// above all, zeroing) megabytes of chunk backing per simulation
// dominated the harness's allocation profile. Pools are keyed by element
// type and chunk geometry; see Heap.SetRecycle for the (non-zeroed!)
// reuse contract.
var chunkPools sync.Map // chunkPoolKey -> *sync.Pool

type chunkPoolKey struct {
	typ reflect.Type
	els int // elements per chunk
}

func chunkPool[T any](els int) *sync.Pool {
	key := chunkPoolKey{typ: reflect.TypeFor[T](), els: els}
	if p, ok := chunkPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := chunkPools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// Ref is a global reference into a Heap: the UPC "pointer-to-shared". The
// zero value is NOT nil; a negative Thr is nil (IsNil).
type Ref struct {
	Thr int32 // affinity: which thread's shard holds the element
	Idx int32 // element index within that shard
}

// IsNil reports whether r is the null reference.
func (r Ref) IsNil() bool { return r.Thr < 0 }

// String implements fmt.Stringer for diagnostics.
func (r Ref) String() string {
	if r.IsNil() {
		return "ref(nil)"
	}
	return fmt.Sprintf("ref(%d:%d)", r.Thr, r.Idx)
}

// maxChunks bounds a shard's chunk count: an Alloc or GrowShard that
// would reach chunk maxChunks exhausts the shard.
const maxChunks = 1 << 14

// Heap is a distributed array of T: each thread owns a shard in its local
// shared memory, grown by Alloc. Elements are addressed by Ref and
// accessed through cost-charged operations. The backing storage is
// chunked so raw pointers obtained via Local remain valid across later
// allocations. One thread runs at a time, so chunk tables are plain
// slices that the scheduler's baton orders (DESIGN.md §9).
type Heap[T any] struct {
	elemSize  int
	chunkSize int32
	shift     uint
	recycle   bool
	shards    []heapShard[T]
}

type heapShard[T any] struct {
	// table holds the shard's chunks, every entry non-nil: it starts
	// empty and Alloc and GrowShard append up to the highest chunk they
	// reach, so a shard pays for the chunks it uses and nothing per
	// possible chunk.
	table []*[]T
	n     int32 // allocated elements
}

// NewHeap creates a heap over rt whose shards grow in chunks of
// chunkSize elements (rounded up to a power of two, min 1024).
func NewHeap[T any](rt *Runtime, chunkSize int) *Heap[T] {
	cs := int32(1024)
	var shift uint = 10
	for int(cs) < chunkSize {
		cs <<= 1
		shift++
	}
	var zero T
	return &Heap[T]{
		elemSize:  int(unsafe.Sizeof(zero)),
		chunkSize: cs,
		shift:     shift,
		shards:    make([]heapShard[T], rt.Threads()),
	}
}

// SetRecycle opts the heap into cross-runtime chunk recycling: Release
// returns the shard storage to a process-wide pool, and Alloc may hand
// out pooled chunks WITHOUT zeroing them. Only enable this when every
// element is fully initialized before its first read (the Barnes-Hut
// heaps are: cells are whole-struct assigned at creation, bodies copied
// in), because Alloc's usual zeroed-memory guarantee no longer holds.
func (h *Heap[T]) SetRecycle() { h.recycle = true }

// Release drops the heap's chunks, returning them to the process-wide
// recycling pool if SetRecycle was called. The heap must not be used
// afterwards; data previously copied out (e.g. a collected Result) is
// unaffected.
func (h *Heap[T]) Release() {
	for i := range h.shards {
		sh := &h.shards[i]
		if h.recycle {
			p := chunkPool[T](int(h.chunkSize))
			for _, c := range sh.table {
				p.Put(c)
			}
		}
		sh.table = nil
	}
}

// Len returns the number of elements allocated in thread thr's shard.
// Only meaningful at phase boundaries (the owner may be allocating).
func (h *Heap[T]) Len(thr int) int { return int(h.shards[thr].n) }

// Alloc reserves count contiguous elements in t's own shard (upc_alloc
// allocates in the caller's local shared space) and returns the Ref of
// the first. No simulated cost is charged: the emulated allocator is a
// local bump-pointer whose per-object overhead the cost model folds into
// the operation that initializes the allocation (CellInitCost for cells,
// ByteCopyCost for buffers), mirroring how the paper's timings cannot
// separate upc_alloc from the work that populates the memory.
// TestAllocChargesNoCost pins this behavior.
func (h *Heap[T]) Alloc(t *Thread, count int) Ref {
	if count <= 0 {
		panic("upc: Alloc with non-positive count")
	}
	sh := &h.shards[t.id]
	start := sh.n
	mask := h.chunkSize - 1
	if off := start & mask; off != 0 && off+int32(count) > h.chunkSize {
		start = start - off + h.chunkSize // skip to a chunk boundary
	}
	last := int((start + int32(count) - 1) >> h.shift)
	if last >= maxChunks {
		panic("upc: heap shard exhausted")
	}
	h.growTable(sh, last)
	sh.n = start + int32(count)
	return Ref{Thr: int32(t.id), Idx: start}
}

// growTable extends sh's chunk table to cover chunk last. The table is
// dense (the shard's elements, and any chunk-boundary skip, never pass
// its end), so the missing chunks are exactly those from len(table) on.
func (h *Heap[T]) growTable(sh *heapShard[T], last int) {
	missing := last + 1 - len(sh.table)
	if missing <= 0 {
		return
	}
	cs := int(h.chunkSize)
	if h.recycle && missing == 1 {
		// Recycled chunk if one is pooled (NOT re-zeroed — see
		// SetRecycle), else a fresh zeroed one.
		if v := chunkPool[T](cs).Get(); v != nil {
			sh.table = append(sh.table, v.(*[]T))
			return
		}
	}
	// Allocate all missing chunks in one backing array so large
	// allocations are physically contiguous too. Caps are bounded per
	// chunk so Release can pool each independently.
	backing := make([]T, missing*cs)
	for k := 0; k < missing; k++ {
		c := backing[k*cs : (k+1)*cs : (k+1)*cs]
		sh.table = append(sh.table, &c)
	}
}

// Reset discards all elements of t's own shard (retaining memory). Any
// outstanding Refs into the shard become logically dangling; callers must
// only Reset at phase boundaries, as the Barnes-Hut code does when it
// rebuilds the tree each time-step.
func (h *Heap[T]) Reset(t *Thread) { h.shards[t.id].n = 0 }

// ptr returns the raw address of the element; no cost, no checks.
func (h *Heap[T]) ptr(thr, idx int32) *T {
	c := h.shards[thr].table[idx>>h.shift]
	return &(*c)[idx&(h.chunkSize-1)]
}

// Local returns a raw pointer to an element with affinity to t: the
// "cast pointer-to-shared to local pointer" optimization. It panics if
// the reference is remote — exactly the bug that cast would be in UPC.
// No simulated cost is charged (plain C pointer access).
func (h *Heap[T]) Local(t *Thread, r Ref) *T {
	if int(r.Thr) != t.id {
		panic(fmt.Sprintf("upc: Local cast of remote reference %v on thread %d", r, t.id))
	}
	return h.ptr(r.Thr, r.Idx)
}

// IsLocal reports whether r has affinity to t (upc_threadof == MYTHREAD).
func (h *Heap[T]) IsLocal(t *Thread, r Ref) bool { return int(r.Thr) == t.id }

// Get dereferences a pointer-to-shared, returning a copy of the whole
// element. Local affinity costs the shared-pointer overhead; remote
// affinity costs a blocking round trip carrying the element.
func (h *Heap[T]) Get(t *Thread, r Ref) T {
	h.chargeGet(t, r, h.elemSize)
	return *h.ptr(r.Thr, r.Idx)
}

// GetBytes models a fine-grained access that reads only the leading
// `bytes` of the element (e.g. the hot fields of a struct in the
// SPLASH2-style code). Exactly that byte prefix is copied — you get the
// bytes you pay for — which also keeps concurrent prefix reads disjoint
// from the owner's writes to trailing fields (the UPC one-sided-get
// pattern, expressed race-free).
func (h *Heap[T]) GetBytes(t *Thread, r Ref, bytes int) T {
	h.chargeGet(t, r, bytes)
	var out T
	copyPrefix(&out, h.ptr(r.Thr, r.Idx), bytes, h.elemSize)
	return out
}

// copyPrefix copies min(n, size) leading bytes of src into dst.
func copyPrefix[T any](dst, src *T, n, size int) {
	if n >= size {
		*dst = *src
		return
	}
	if n <= 0 {
		return
	}
	db := unsafe.Slice((*byte)(unsafe.Pointer(dst)), size)
	sb := unsafe.Slice((*byte)(unsafe.Pointer(src)), size)
	copy(db[:n], sb[:n])
}

// ReadView dereferences a pointer-to-shared without materializing a
// copy: it charges exactly what GetBytes(t, r, bytes) would charge (the
// modelled wire cost is a property of the access, not of how the
// emulator stages the data) and returns a read-only pointer into the
// element's live storage. The caller must consume the fields it needs —
// which must lie within the charged byte prefix — without writing, and
// must not hold the view across an operation that may mutate the
// element. It exists for the force/c-of-m hot paths, where GetBytes'
// whole-struct staging copies dominated the real (wall-clock) cost of a
// simulate run; the charge sequence is pinned by the simulate goldens.
func (h *Heap[T]) ReadView(t *Thread, r Ref, bytes int) *T {
	h.chargeGet(t, r, bytes)
	return h.ptr(r.Thr, r.Idx)
}

func (h *Heap[T]) chargeGet(t *Thread, r Ref, bytes int) {
	if r.IsNil() {
		panic("upc: dereference of nil pointer-to-shared")
	}
	t.access(int(r.Thr), bytes, &t.stats.RemoteGets)
}

// PutBytes models a fine-grained partial store: mut is applied to the
// element in place and only `bytes` are charged on the wire. The caller
// must hold whatever application-level lock protects the element, as the
// UPC code does.
func (h *Heap[T]) PutBytes(t *Thread, r Ref, bytes int, mut func(*T)) {
	h.chargePut(t, r, bytes)
	mut(h.ptr(r.Thr, r.Idx))
}

func (h *Heap[T]) chargePut(t *Thread, r Ref, bytes int) {
	if r.IsNil() {
		panic("upc: store through nil pointer-to-shared")
	}
	t.access(int(r.Thr), bytes, &t.stats.RemotePuts)
}

// LocalSlice returns the backing storage of n elements starting at r as
// a plain slice. The range must be local to t and lie within a single
// allocation chunk (one upc_alloc'd buffer); size the heap's chunkSize
// accordingly. No simulated cost is charged (local cast).
func (h *Heap[T]) LocalSlice(t *Thread, r Ref, n int) []T {
	if int(r.Thr) != t.id {
		panic(fmt.Sprintf("upc: LocalSlice of remote reference %v on thread %d", r, t.id))
	}
	if n == 0 {
		return nil
	}
	first := r.Idx >> h.shift
	last := (r.Idx + int32(n) - 1) >> h.shift
	if first != last {
		panic("upc: LocalSlice range spans chunks; allocate a larger chunkSize")
	}
	c := h.shards[r.Thr].table[first]
	off := r.Idx & (h.chunkSize - 1)
	return (*c)[off : off+int32(n)]
}

// OneChunk reports whether the n-element range starting at local index
// idx lies within a single allocation chunk — the LocalSlice
// precondition, which every Alloc of up to a chunk's worth of elements
// satisfies. The checkpoint-restore path uses it to validate captured
// buffer geometry before the hot path dereferences it.
func (h *Heap[T]) OneChunk(idx int32, n int) bool {
	if idx < 0 || n <= 0 {
		return false
	}
	return int64(idx)>>h.shift == (int64(idx)+int64(n)-1)>>h.shift
}

// Raw returns the element's address regardless of affinity, charging
// nothing. It exists for flag protocols (spin-waiting on a cell's Done
// flag) and for emulation internals; callers are responsible for charging the corresponding simulated cost via Touch.
func (h *Heap[T]) Raw(r Ref) *T {
	if r.IsNil() {
		panic("upc: Raw of nil pointer-to-shared")
	}
	return h.ptr(r.Thr, r.Idx)
}

// Touch charges the cost of a fine-grained read of `bytes` from the
// element without copying it (companion to Raw).
func (h *Heap[T]) Touch(t *Thread, r Ref, bytes int) { h.chargeGet(t, r, bytes) }

// TouchPut charges the cost of a fine-grained write of `bytes` to the
// element without performing it (companion to Raw).
func (h *Heap[T]) TouchPut(t *Thread, r Ref, bytes int) { h.chargePut(t, r, bytes) }

// Gather is upc_memget_ilist: a blocking indexed gather of refs[i] into
// dst[i]. Elements with the same source thread travel in one aggregated
// message. dst must be at least as long as refs.
func (h *Heap[T]) Gather(t *Thread, refs []Ref, dst []T) {
	if len(dst) < len(refs) {
		panic("upc: Gather destination shorter than reference list")
	}
	hd := h.GatherAsync(t, refs)
	for i, r := range refs {
		dst[i] = *h.ptr(r.Thr, r.Idx)
	}
	t.WaitSync(&hd)
}

// Handle is an outstanding non-blocking communication, as returned by
// bupc_memget_vlist_async. Completion is a simulated-time event: the
// handle carries no data, which the caller reads from the source (Raw)
// at sync — legal because the paper only gathers cells and body
// positions/masses, which nothing writes between the tree barrier and
// the force barrier.
type Handle struct {
	CompleteAt float64
	Refs       int
	Sources    int
}

// GatherAsync is bupc_memget_vlist_async: a non-blocking gather from
// possibly many source threads. The sender is charged the per-message
// overheads immediately; the handle completes when the slowest source's
// reply would arrive. It is accounting only: nothing is copied, and the
// caller reads the elements at sync. The Handle is a value, so a gather
// allocates nothing.
func (h *Heap[T]) GatherAsync(t *Thread, refs []Ref) Handle {
	return h.GatherAsyncBytes(t, refs, h.elemSize)
}

// GatherAsyncBytes is GatherAsync fetching only the leading bytesPer
// bytes of each element (see GetBytes for the prefix semantics).
func (h *Heap[T]) GatherAsyncBytes(t *Thread, refs []Ref, bytesPer int) Handle {
	if bytesPer <= 0 || bytesPer > h.elemSize {
		bytesPer = h.elemSize
	}
	t.gatherGroups = groupSources(t.gatherGroups[:0], refs)
	return t.gather(t.gatherGroups, bytesPer)
}

// groupSources appends one group per source thread of refs to groups,
// in first-appearance order, counting its elements. The order is
// deterministic because the sender-side charges accumulate per group,
// so it feeds the virtual clock (a map would leak Go's randomized
// iteration into the simulated times); request lists are short, so a
// linear scan beats a map anyway.
func groupSources(groups []gatherGroup, refs []Ref) []gatherGroup {
	from := len(groups)
next:
	for _, r := range refs {
		if r.IsNil() {
			panic("upc: GatherAsync of nil reference")
		}
		for gi := from; gi < len(groups); gi++ {
			if groups[gi].thr == r.Thr {
				groups[gi].count++
				continue next
			}
		}
		groups = append(groups, gatherGroup{thr: r.Thr, count: 1})
	}
	return groups
}

// gather accounts an aggregated non-blocking gather of bytesPer bytes
// per element, one message per source group, and returns its handle.
func (t *Thread) gather(groups []gatherGroup, bytesPer int) Handle {
	complete := t.clock
	nsrc, refs := 0, 0
	for _, g := range groups {
		refs += int(g.count)
		bytes := int(g.count) * bytesPer
		if int(g.thr) != t.id {
			nsrc++
			t.stats.Msgs++
			t.stats.Bytes += uint64(bytes)
		}
		if done := t.gatherFrom(int(g.thr), bytes); done > complete {
			complete = done
		}
	}
	t.stats.GatherReqs++
	t.stats.GatherSrcHist[min(nsrc, len(t.stats.GatherSrcHist)-1)]++
	return Handle{CompleteAt: complete, Refs: refs, Sources: nsrc}
}

// WaitSync is bupc_waitsync: block until the handle completes. It only
// aligns the clock to the completion event; the gathered elements are
// read at sync, from the source.
func (t *Thread) WaitSync(h *Handle) {
	t.AdvanceTo(h.CompleteAt)
}
