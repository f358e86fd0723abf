package core

import (
	"unsafe"

	"upcbh/internal/nbody"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// NodeRef is a tagged global reference to an octree node: either a cell
// (in the cells heap) or a body (in the bodies heap), or nil. It is
// packed into one machine word, the pointer-sized tree slot the SPLASH2
// lock protocol reads without the lock. The pointer tree exists only
// under the cooperative scheduler, where one thread runs at a time, so
// slots are plain loads and stores (DESIGN.md §9).
//
// Layout: bits 62-63 kind, bits 32-45 thread, bits 0-31 index.
type NodeRef uint64

// Node kinds.
const (
	refNil  = 0
	refBody = 1
	refCell = 2
)

// NilNode is the empty tree slot.
const NilNode NodeRef = 0

// BodyRef tags a bodies-heap reference.
func BodyRef(r upc.Ref) NodeRef { return packRef(refBody, r) }

// CellRef tags a cells-heap reference.
func CellRef(r upc.Ref) NodeRef { return packRef(refCell, r) }

func packRef(kind uint64, r upc.Ref) NodeRef {
	return NodeRef(kind<<62 | uint64(uint32(r.Thr)&0x3fff)<<32 | uint64(uint32(r.Idx)))
}

// IsNil reports an empty slot.
func (n NodeRef) IsNil() bool { return n == 0 }

// IsBody reports a body leaf.
func (n NodeRef) IsBody() bool { return n>>62 == refBody }

// IsCell reports an internal cell.
func (n NodeRef) IsCell() bool { return n>>62 == refCell }

// Ref unpacks the heap reference.
func (n NodeRef) Ref() upc.Ref {
	return upc.Ref{Thr: int32(n >> 32 & 0x3fff), Idx: int32(uint32(n))}
}

// Cell is one internal octree cell, stored in the distributed cells heap.
// During phases that mutate cells concurrently (tree build, merge) the
// Sub slots are read without and written under the hashed cell lock, as
// are the aggregate fields, per the SPLASH2 protocol.
//
// Field order is load-bearing: fine-grained remote reads copy byte
// prefixes (see upc.Heap.GetBytes), so the fields the force walk's
// acceptance test reads come first, then the remaining aggregates the
// c-of-m phase reads, then owner-side bookkeeping and child slots:
//
//	[0,24)  CofM, [24,32) Mass, [32,40) Half   — acceptance test
//	[40,48) Cost, [48,52) NSub, [52,56) Done   — aggregates
//	[56,..) Center, DoneAt, Sub                — full-cell transfers only
type Cell struct {
	CofM vec.V3 // center of mass (kept normalized; merges use weighted averages)
	Mass float64
	Half float64
	Cost float64 // subtree work estimate, for costzones
	NSub int32   // bodies in subtree
	Done uint32  // flag: aggregates valid (L0-L3 c-of-m phase)

	Center vec.V3
	// DoneAt is the simulated time Done was set; a thread that observed
	// Done==0 and waited aligns its clock to this modelled event.
	DoneAt float64

	Sub [8]NodeRef
}

// cellBytes is the modelled wire size of one cell; computed from the real
// struct so the cost model tracks the implementation.
var cellBytes = int(unsafe.Sizeof(Cell{}))

// bodyBytes is the modelled wire size of one body.
var bodyBytes = int(unsafe.Sizeof(nbody.Body{}))

// Modelled sizes of fine-grained accesses (bytes on the wire). These are
// byte-prefix lengths of the structs above, matching the fields the
// SPLASH2-style code actually reads; layout_test.go pins the offsets.
const (
	bytesSlot       = 8  // one Sub slot
	bytesCellAccept = 40 // CofM+Mass+Half: the theta acceptance test
	bytesAgg        = 56 // + Cost+NSub+Done: c-of-m aggregation
	bytesBodyPos    = 24 // body position
	bytesBodyMass   = 32 // position+mass (force computation)
	bytesBodyCost   = 40 // +cost (c-of-m, partitioning)
	bytesBodyAcc    = 40 // acceleration+potential+cost write-back
)

// bytesBodyAll is the whole-body advance read-modify-write.
var bytesBodyAll = bodyBytes
