// Package arena provides page-aligned, mmap-backed memory arenas for
// the simulation's hot flat arrays, plus the versioned checkpoint
// container that serializes a paused simulation (DESIGN.md §12.2): one
// stream writer (WriteCheckpoint), one validating reader
// (ReadCheckpoint), and WriteFileCheckpoint, which streams the writer
// into a file published atomically through internal/durable.
//
// An Arena is a bump allocator over one anonymous (private, zero-filled)
// mmap'd region. Memory handed out by an Arena is invisible to the Go
// garbage collector: it is never scanned and never collected, which is
// exactly what the steady-state-zero-alloc native step wants, and exactly
// why only pointer-free element types are allowed (a Go pointer stored in
// arena memory would be invisible to the GC and dangle after a
// collection; MakeSlice enforces this with a one-time type check).
//
// Every allocation helper degrades gracefully: a nil *Arena, an
// exhausted arena, or a platform where mmap fails all fall back to the
// ordinary Go heap with identical semantics. Callers never need a
// fallback path of their own.
package arena

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"syscall"
	"unsafe"
)

// Arena is a bump allocator over one mmap'd region. Not safe for
// concurrent Alloc; the simulation allocates from per-structure arenas
// on a single thread (growth happens inside thread-0 build phases).
type Arena struct {
	mem []byte
	off int
}

// pageSize is the mmap granularity; sizes are rounded up to it.
var pageSize = os.Getpagesize()

func roundUp(n, align int) int { return (n + align - 1) &^ (align - 1) }

// New maps an anonymous private region of at least size bytes and
// returns an arena over it. The region is zero-filled by the kernel.
func New(size int) (*Arena, error) {
	size = roundUp(size, pageSize)
	mem, err := syscall.Mmap(-1, 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("arena: anonymous mmap of %d bytes: %w", size, err)
	}
	return &Arena{mem: mem}, nil
}

// Size returns the mapped capacity in bytes; Used the bytes bumped so
// far.
func (a *Arena) Size() int { return len(a.mem) }
func (a *Arena) Used() int { return a.off }

// Bytes returns the full mapped region. The caller must not retain it
// past Close.
func (a *Arena) Bytes() []byte { return a.mem }

// alloc bumps n bytes at the given alignment, or returns nil when the
// arena is exhausted (callers fall back to the heap). The returned
// memory is zero as make() would leave it, and without being written:
// the mapping is kernel-zeroed and the bump offset only ever advances, so
// no byte is handed out twice — and a page the caller never writes is
// never resident, which is what lets callers reserve more than they use.
func (a *Arena) alloc(n, align int) []byte {
	if a == nil || n < 0 {
		return nil
	}
	start := roundUp(a.off, align)
	if start+n > len(a.mem) || start+n < start {
		return nil
	}
	a.off = start + n
	return a.mem[start : start+n : start+n]
}

// Close unmaps the region. Any slice previously returned from this
// arena becomes invalid. Safe on nil and idempotent.
func (a *Arena) Close() error {
	if a == nil || a.mem == nil {
		return nil
	}
	err := syscall.Munmap(a.mem)
	a.mem, a.off = nil, 0
	return err
}

// pointerFree caches the per-type "may this live in arena memory"
// verdict so the reflect walk runs once per element type, not per
// allocation.
var pointerFree sync.Map // reflect.Type -> bool

func assertPointerFree[T any]() {
	t := reflect.TypeOf((*T)(nil)).Elem()
	if ok, hit := pointerFree.Load(t); hit {
		if !ok.(bool) {
			panic(fmt.Sprintf("arena: element type %v contains pointers", t))
		}
		return
	}
	free := !hasPointers(t)
	pointerFree.Store(t, free)
	if !free {
		panic(fmt.Sprintf("arena: element type %v contains pointers", t))
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// MakeSlice allocates a slice of capacity elements (length of them
// live) from a, falling back to the Go heap when a is nil or exhausted.
// The element type must be pointer-free.
func MakeSlice[T any](a *Arena, length, capacity int) []T {
	assertPointerFree[T]()
	if capacity < length {
		capacity = length
	}
	var zero T
	esz, ealign := int(unsafe.Sizeof(zero)), int(unsafe.Alignof(zero))
	if b := a.alloc(capacity*esz, ealign); b != nil {
		if capacity == 0 {
			return []T{}
		}
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), capacity)[:length]
	}
	return make([]T, length, capacity)
}

// Append appends vs to s, growing through a (with doubling) when
// capacity runs out — append semantics with arena-backed growth. On a
// nil or exhausted arena, growth lands on the Go heap.
func Append[T any](a *Arena, s []T, vs ...T) []T {
	if len(s)+len(vs) <= cap(s) {
		return append(s, vs...)
	}
	need := len(s) + len(vs)
	newCap := 2 * cap(s)
	if newCap < need {
		newCap = need
	}
	if newCap < 8 {
		newCap = 8
	}
	ns := MakeSlice[T](a, len(s), newCap)
	copy(ns, s)
	return append(ns, vs...)
}

// Grow returns s extended to at least capacity (length preserved),
// allocating from a when the current capacity is insufficient.
func Grow[T any](a *Arena, s []T, capacity int) []T {
	if cap(s) >= capacity {
		return s
	}
	ns := MakeSlice[T](a, len(s), capacity)
	copy(ns, s)
	return ns
}
