package octree

import (
	"fmt"
	"math"
	"math/bits"

	"upcbh/internal/arena"
	"upcbh/internal/nbody"
	"upcbh/internal/vec"
)

// This file implements the flat, arena-backed octree: the same canonical
// Barnes-Hut tree as the pointer representation (Tree/Node), stored as
// contiguous slices addressed by int32 indices, over bodies held in
// Morton-sorted structure-of-arrays views. The layout turns the force
// walk's pointer-chasing into mostly-sequential index arithmetic — the
// single-node analogue of the paper's locality theme (§5.3 caching, §5.4
// merged local builds, §6 subspaces all exist to replace scattered
// remote access with contiguous local access).
//
// Structural contract: for a given body set and root cube, the flat tree
// is node-for-node identical to the pointer tree Build produces (the
// Barnes-Hut octree is canonical — a cube is a cell iff it holds >= 2
// bodies — and both builders split with the same Octant/ChildBounds
// arithmetic), nodes appear in DFS preorder with children visited in
// octant order, and the aggregates are computed with the same operation
// order as ComputeCofM, so CofM/Mass agree bit for bit. The fuzz and
// property tests in flat_test.go pin this equivalence.

// flatMaxDepth bounds the depth of a flat tree (the root is depth 0);
// exceeding it means (near-)coincident bodies the octree cannot separate,
// matching the pointer builder's panic. The force walk's fixed frame
// stack is sized by it.
const flatMaxDepth = 64

// FlatNode is the hot record of one cell: exactly the fields the force
// walk reads, packed into 48 bytes so the acceptance test streams
// through a dense array (a 16K-body tree's nodes fit in L2, where the
// 152-byte pointer Nodes do not). Everything the walk does not read
// (Center, Half, Cost, N) lives in the parallel FlatMeta array.
//
// LSq stores 4*Half*Half, the squared cell side: the acceptance test
// l*l < theta^2*d^2 becomes one load and one compare. In binary floating
// point (2h)*(2h) rounds to exactly 4*(h*h) — scaling by 4 commutes with
// rounding — so precomputing it preserves bit-identical accept decisions
// with the pointer walk's Accept.
//
// A cell's children occupy Kids[First : First+Count], in octant order.
type FlatNode struct {
	CofM  vec.V3
	Mass  float64
	LSq   float64 // (2*Half)^2, the squared side length
	First int32   // first child entry in Kids
	Count int32   // number of children (non-empty octants)
}

// FlatMeta is the cold per-cell record: build, partitioning and
// verification data the force walk never touches.
type FlatMeta struct {
	Center vec.V3
	Half   float64
	Cost   float64
	N      int32 // bodies in subtree
	_      int32
}

// PosMass is the packed per-leaf interaction record: position and mass
// in one 32-byte line-friendly struct, derived from the SoA views when a
// build finishes so a leaf interaction touches a single cache line.
type PosMass struct {
	Pos  vec.V3
	Mass float64
}

// Kid entries are tagged int32 values: a non-negative value is the index
// of a child cell in Nodes, a negative value v is a body leaf with SoA
// index -(v+1). (Node 0 is the root and is never a child, but kid slots
// are never empty either — only non-empty octants get entries — so the
// non-negative range is unambiguous.)

// FlatLeaf encodes a body index as a kid-entry value.
func FlatLeaf(body int32) int32 { return -(body + 1) }

// FlatLeafBody decodes a negative kid entry back to a body index.
func FlatLeafBody(v int32) int32 { return -v - 1 }

// FlatTree is an arena-backed octree: hot cell records in Nodes (Nodes[0]
// is the root, DFS preorder), child indices in Kids (per-cell contiguous,
// octant order), cold cell data in Meta, and bodies in the SoA view in
// DFS leaf order (= Morton order over the root cube, since Morton order
// equals child-index order). All backing arrays — nodes, kids, body
// views, sort and partition scratch, the walk stack — are retained across
// Rebuild calls, so a tree rebuilt every time-step reaches a steady state
// with zero allocations.
type FlatTree struct {
	Center vec.V3
	Half   float64

	Nodes []FlatNode
	Meta  []FlatMeta
	Kids  []int32

	// Bodies holds the body inputs in tree (DFS/Morton) order;
	// Bodies.ID[i] is the index of slot i in the slice Rebuild was given.
	Bodies nbody.SoA

	// PM mirrors Bodies.Pos/Bodies.Mass as packed interaction records,
	// written as the build gathers each body.
	PM []PosMass

	// Build scratch, retained across steps: the sort keys, the
	// permutation they carry, a stable scatter's targets, geometric
	// octants, and the staging view RebuildWithRoot builds from.
	keys    []uint64
	keyTmp  []uint64
	perm    []int32
	permTmp []int32
	octs    []uint8
	stage   nbody.SoA

	// Tree-owned walker for the convenience ForceOn entry point
	// (which is therefore not safe for concurrent use on one FlatTree —
	// concurrent walkers keep their own FlatWalker).
	walker FlatWalker

	// mem, when set via SetArena, backs all array growth: node records,
	// kid entries, packed PM records, Morton scratch and the SoA body
	// views all land in off-heap mmap memory, invisible to the GC. Every
	// element type here is pointer-free by construction.
	mem *arena.Arena
}

// SetArena directs all future growth of the tree's arrays onto a.
// Existing contents are preserved (each array migrates on its next
// growth). A nil arena reverts to Go-heap growth.
func (ft *FlatTree) SetArena(a *arena.Arena) {
	ft.mem = a
	ft.Bodies.SetArena(a)
	ft.stage.SetArena(a)
}

// Rebuild reconstructs the tree over bodies, reusing all arenas, within
// the root cube of their bounding box.
func (ft *FlatTree) Rebuild(bodies []nbody.Body) {
	lo, hi := nbody.BoundingBox(bodies)
	center, half := nbody.RootCell(lo, hi)
	ft.RebuildWithRoot(bodies, center, half)
}

// RebuildWithRoot reconstructs the tree over bodies inside the given root
// cube (which must contain them), reusing all arenas. An empty body set
// yields a lone empty root cell.
func (ft *FlatTree) RebuildWithRoot(bodies []nbody.Body, center vec.V3, half float64) {
	n := len(bodies)
	ft.stage.Resize(n)
	for i := range bodies {
		b := &bodies[i]
		ft.stage.Set(i, b.Pos, b.Mass, b.Cost, int32(i))
	}
	ft.Center, ft.Half = center, half
	ft.Nodes = ft.Nodes[:0]
	ft.Meta = ft.Meta[:0]
	ft.Kids = ft.Kids[:0]
	ft.Bodies.Resize(n)
	if cap(ft.PM) < n {
		ft.PM = arena.MakeSlice[PosMass](ft.mem, n, n)
	}
	ft.PM = ft.PM[:n]
	ft.AppendSubtree(&ft.stage, 0, int32(n), center, half, 0)
}

// AppendSubtree is the build itself, and the append-mode entry point of
// the parallel builder (parbuild.go): it builds the bodies in slots
// [lo, hi) of src within the cube (center, half), gathers them in tree
// order into the SAME slots of ft.Bodies and ft.PM (Bodies.ID records the
// src slot each came from), and appends the cell covering that cube at
// tree depth `depth`, with its whole subtree, to Nodes/Meta/Kids —
// leaving everything already in ft alone. It returns the new cell's
// index; the caller sizes ft.Bodies and ft.PM.
//
// The build is two passes over the bodies and one over the cells: each
// body's key within the cube, with its trust in the low bits (keyCube),
// a presort on the key bytes below their common prefix (presort), then
// split, which lays the cells out over the keys in DFS preorder, sorts
// whatever the presort left out of octant order, gathers each body into
// its slot once it is a leaf and sums every cell over its kids.
func (ft *FlatTree) AppendSubtree(src *nbody.SoA, lo, hi int32, center vec.V3, half float64, depth int) int32 {
	n := int(hi - lo)
	ft.ensureScratch(n)
	kc := newKeyCube(center, half)
	b := binBuild{ft: ft, src: src, base: lo, depth0: depth}
	b.minTrust = kc.fill(ft.keys, src.Pos[lo:hi])
	for i := range ft.perm {
		ft.perm[i] = lo + int32(i)
	}
	b.sorted = presort(ft.keys, ft.perm, ft.keyTmp, ft.permTmp)
	ci := ft.newNode(center, half)
	b.split(ci, 0, int32(n), depth)
	return ci
}

func (ft *FlatTree) ensureScratch(n int) {
	if cap(ft.keys) < n {
		// Doubling, so a builder fed ranges of varying size (AppendSubtree)
		// settles instead of leaving a dead arena block per new maximum.
		c := max(n, 2*cap(ft.keys))
		ft.keys = arena.MakeSlice[uint64](ft.mem, n, c)
		ft.keyTmp = arena.MakeSlice[uint64](ft.mem, n, c)
		ft.perm = arena.MakeSlice[int32](ft.mem, n, c)
		ft.permTmp = arena.MakeSlice[int32](ft.mem, n, c)
		ft.octs = arena.MakeSlice[uint8](ft.mem, n, c)
	}
	ft.keys = ft.keys[:n]
	ft.keyTmp = ft.keyTmp[:n]
	ft.perm = ft.perm[:n]
	ft.permTmp = ft.permTmp[:n]
	ft.octs = ft.octs[:n]
}

// newNode appends a cell of the given cube. Only the cube is written
// here; split writes the rest.
func (ft *FlatTree) newNode(center vec.V3, half float64) int32 {
	i := len(ft.Nodes)
	if i < cap(ft.Nodes) && i < cap(ft.Meta) {
		ft.Nodes, ft.Meta = ft.Nodes[:i+1], ft.Meta[:i+1]
	} else {
		ft.Nodes = arena.Append(ft.mem, ft.Nodes, FlatNode{})
		ft.Meta = arena.Append(ft.mem, ft.Meta, FlatMeta{})
	}
	l := 2 * half
	ft.Nodes[i].LSq = l * l
	ft.Meta[i].Center, ft.Meta[i].Half = center, half
	return int32(i)
}

// reserveKids appends k <= 8 kid entries for the caller to write and
// returns the first one's index.
func (ft *FlatTree) reserveKids(k int) int32 {
	first := len(ft.Kids)
	if first+k <= cap(ft.Kids) {
		ft.Kids = ft.Kids[:first+k]
	} else {
		var zero [8]int32
		ft.Kids = arena.Append(ft.mem, ft.Kids, zero[:k]...)
	}
	return int32(first)
}

// The keys. A build key is a body's 63-bit Morton code within the cube
// the build starts from — three bits per level, most significant level
// first, digit r naming the body's octant at depth r below that cube —
// except that its six lowest bits (levels 19 and 20, which no build
// reads from keys) hold the body's trust: 1 + the number of levels whose
// digits are the octants the geometric Octant test gives.
//
// The Octant test is what defines the tree. A key digit can disagree
// with it only for a body within one Morton quantum (2*half/2^21) of the
// cell plane it is tested against: the key and the plane are each off by
// far less than a quantum (keyCube). That body's quantized coordinate on
// that axis is then one of the two next to the plane, whose bits below
// the plane's bit are all 0 or all 1 — and so are its bits below every
// deeper plane's bit. A body whose lowest t bits on some axis are equal
// is therefore trusted for the first 20-t levels only, and the build
// tests it geometrically from there on.
const (
	keyDepth  = 19 // levels a key can vouch for (digits 0 … 18)
	trustBits = 63 // low key bits holding the trust
)

// keyCube is a cube's key arithmetic: the low corner and the quanta per
// unit length. In units of a quantum, with the cube's centre c and half
// side h, a computed key coordinate is off by at most about
// (|c|/h + 3)·2^-33 + 2^-31, and a cell centre at depth d, from d
// rounded ChildBounds steps, by d·(|c|/h + 1)·2^-33: both under 2^-8
// while |c| <= 2^20·h. maxTrust is 20 there, and 0 farther out or for a
// cube too small or too large for those bounds (a subnormal quantum, an
// overflowing side), where no key is trusted and the build tests every
// body geometrically.
type keyCube struct {
	lo       vec.V3
	scale    float64
	maxTrust uint64
}

func newKeyCube(center vec.V3, half float64) keyCube {
	kc := keyCube{
		lo:    vec.V3{X: center.X - half, Y: center.Y - half, Z: center.Z - half},
		scale: (1 << 21) / (2 * half),
	}
	far := math.Ldexp(half, 20)
	if half >= 0x1p-900 && half <= 0x1p900 &&
		math.Abs(center.X) <= far && math.Abs(center.Y) <= far && math.Abs(center.Z) <= far {
		kc.maxTrust = 20
	}
	return kc
}

// fill sets keys[i] to pos[i]'s build key and returns the least trust
// among them. A coordinate outside the cube clamps to its face, and a
// face is within a quantum of every plane's bit pattern, so such a body
// is never trusted.
func (kc *keyCube) fill(keys []uint64, pos []vec.V3) uint64 {
	least := uint64(trustBits)
	for i, p := range pos[:len(keys)] {
		x := kc.quantize(p.X, kc.lo.X)
		y := kc.quantize(p.Y, kc.lo.Y)
		z := kc.quantize(p.Z, kc.lo.Z)
		t := max(equalLowBits(x), equalLowBits(y), equalLowBits(z))
		k := dilate[x&0xff] | dilate[y&0xff]<<1 | dilate[z&0xff]<<2
		k |= (dilate[x>>8&0xff] | dilate[y>>8&0xff]<<1 | dilate[z>>8&0xff]<<2) << 24
		k |= (dilate[x>>16&0xff] | dilate[y>>16&0xff]<<1 | dilate[z>>16&0xff]<<2) << 48
		trust := min(21-t, kc.maxTrust)
		keys[i] = k&^trustBits | trust
		least = min(least, trust)
	}
	return least
}

// dilate[b] is spread(b): a byte's bits three apart, so a key is nine
// lookups.
var dilate = func() (d [256]uint64) {
	for b := range d {
		d[b] = spread(uint64(b))
	}
	return d
}()

// quantize is v's cell of 2^21 along an axis from lo. Out of range,
// including a NaN and an overflowing conversion, clamps to a face.
func (kc *keyCube) quantize(v, lo float64) uint64 {
	return uint64(min(max(int64((v-lo)*kc.scale), 0), 1<<21-1))
}

// equalLowBits is the length of the run of equal bits at the bottom of
// a 21-bit coordinate (1 … 21).
func equalLowBits(q uint64) uint64 {
	return uint64(bits.TrailingZeros64((q ^ -(q & 1)) | 1<<21))
}

// presort sorts (keys, perm) stably by the 24 key bits below the keys'
// common prefix: three LSD byte passes, counted in one read, a pass
// skipped where all keys share the byte. That is what this input needs.
// In steady state a bin arrives in the last tree's slot order: nearly
// sorted, but with hundreds of descents at n = 2048 as bodies drift
// across cell planes, some far in Morton order. Eight levels below the
// prefix put every body into its cell of 8^8; what is left — ties in
// those bits, in input order — split sorts, cell by cell, only where a
// cell finds its kids out of order. Below presortMin keys the passes'
// 256-entry counts cost more than they save, and split sorts it all.
// It returns how many key levels the output is in order by. Scratch
// slices must match the input length; no allocations.
const presortMin = 256

func presort(keys []uint64, perm []int32, keyTmp []uint64, permTmp []int32) int {
	n := len(keys)
	if n < presortMin {
		return 0
	}
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	diff &^= trustBits
	if diff == 0 {
		return keyDepth
	}
	low := uint(max(bits.Len64(diff)-24, 0))
	var count [3][256]int32
	for _, k := range keys {
		count[0][k>>low&0xff]++
		count[1][k>>(low+8)&0xff]++
		count[2][k>>(low+16)&0xff]++
	}
	src, dst := keys, keyTmp
	psrc, pdst := perm, permTmp
	for pass := range count {
		c := &count[pass]
		shift := low + 8*uint(pass)
		if c[src[0]>>shift&0xff] == int32(n) {
			continue // all keys share this byte
		}
		sum := int32(0)
		for i, v := range c {
			c[i] = sum
			sum += v
		}
		for i, k := range src {
			b := k >> shift & 0xff
			j := c[b]
			c[b]++
			dst[j] = k
			pdst[j] = psrc[i]
		}
		src, dst = dst, src
		psrc, pdst = pdst, psrc
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(perm, psrc)
	}
	return (60-int(low))/3 + 1 // digit r is bits [60-3r, 63-3r)
}

// binBuild is one AppendSubtree's pass over its cells: keys[lo:hi) and
// perm[lo:hi) in FlatTree's scratch are one cell's bodies, src is the
// view perm indexes, local slot j is tree slot base+j, and depth0 is the
// tree depth of the cube the keys are relative to.
type binBuild struct {
	ft     *FlatTree
	src    *nbody.SoA
	base   int32
	depth0 int

	// Below sorted levels (presort's) and minTrust-1 (fill's), every
	// cell's keys are in order and trusted.
	sorted   int
	minTrust uint64
}

// split gives cell idx (whose Center/Half are set) its kids over the
// local range [lo, hi) at tree depth `depth`, recursing into every kid
// cell, and leaves the range in the kids' octant order. A cell's kids
// come from its key digits when every body in it trusts its key that
// deep, else from the geometric Octant test, which defines the tree (the
// pointer builder splits by it alone); the range is scattered (stably)
// only if it is not already in octant order. The octree over a body set
// is canonical, so the cells and the final order — singletons in DFS
// order — do not depend on the order the bodies arrived in.
//
// Cells recurse in octant order immediately after their kid slots are
// reserved, which makes the node arena DFS preorder and each cell's kid
// entries contiguous.
func (b *binBuild) split(idx, lo, hi int32, depth int) {
	if depth > flatMaxDepth {
		panic("octree: flat build depth limit exceeded (coincident bodies?)")
	}
	ft := b.ft
	center, half := ft.Meta[idx].Center, ft.Meta[idx].Half

	// The kids as runs of the range: kid g is octant oct[g], local slots
	// [at[g], at[g+1]).
	var oct [8]uint8
	var at [9]int32
	n := 0
	if r := depth - b.depth0; r < b.sorted && uint64(r+1) < b.minTrust && hi-lo > 16 {
		// Known sorted and trusted: each kid's run ends where a binary
		// search finds the next digit.
		shift := uint(60-3*r) & 63
		for i := lo; i < hi; n++ {
			o := ft.keys[i] >> shift & 7
			j, k := i+1, hi
			for j < k {
				m := int32(uint32(j+k) >> 1)
				if ft.keys[m]>>shift&7 > o {
					k = m
				} else {
					j = m + 1
				}
			}
			oct[n], at[n] = uint8(o), i
			i = j
		}
	} else if r < keyDepth && lo < hi {
		// A sorted range needs no histogram: it is read off where the
		// digit changes.
		shift, need := uint(60-3*r)&63, uint64(r+1)
		prev := ft.keys[lo] >> shift & 7
		oct[0], at[0], n = uint8(prev), lo, 1
		for i := lo; i < hi; i++ {
			k := ft.keys[i]
			if k&trustBits <= need {
				n = 0
				break
			}
			if o := k >> shift & 7; o != prev {
				if o < prev {
					n = 0
					break
				}
				oct[n], at[n], n = uint8(o), i, n+1
				prev = o
			}
		}
		if n == 0 {
			n = b.sortRange(lo, hi, true, shift, need, center, &oct, &at)
		}
	} else {
		n = b.sortRange(lo, hi, false, 0, 0, center, &oct, &at)
	}
	at[n] = hi

	first := ft.reserveKids(n)

	// Each kid is final once placed: a leaf's body is gathered into its
	// tree slot, a kid cell's subtree is built, and the cell sums them in
	// octant order — the identical operation sequence as computeCofM on
	// the pointer tree, so the values agree bit for bit.
	var wsum vec.V3
	var mass, cost float64
	var nb int32
	for g := range n {
		if at[g+1]-at[g] == 1 {
			j := b.base + at[g]
			pos, m, c := b.gather(j, ft.perm[at[g]])
			ft.Kids[first+int32(g)] = FlatLeaf(j)
			wsum = wsum.AddScaled(pos, m)
			mass += m
			cost += c
			nb++
			continue
		}
		cc, ch := ChildBounds(center, half, int(oct[g]))
		if ch <= 0 || math.IsNaN(ch) {
			panic("octree: cannot split further (coincident bodies?)")
		}
		ci := ft.newNode(cc, ch)
		ft.Kids[first+int32(g)] = ci
		b.split(ci, at[g], at[g+1], depth+1)
		kn, km := &ft.Nodes[ci], &ft.Meta[ci]
		wsum = wsum.AddScaled(kn.CofM, kn.Mass)
		mass += kn.Mass
		cost += km.Cost
		nb += km.N
	}
	nd, mt := &ft.Nodes[idx], &ft.Meta[idx]
	nd.CofM = center
	if mass > 0 {
		nd.CofM = wsum.Scale(1 / mass)
	}
	nd.Mass, nd.First, nd.Count = mass, first, int32(n)
	mt.Cost, mt.N = cost, nb
}

// gather puts src slot p into tree slot j, a leaf from here on, and
// returns what its cell sums.
func (b *binBuild) gather(j, p int32) (pos vec.V3, m, c float64) {
	pos, m, c = b.src.Pos[p], b.src.Mass[p], b.src.Cost[p]
	b.ft.Bodies.Set(int(j), pos, m, c, p)
	b.ft.PM[j] = PosMass{Pos: pos, Mass: m}
	return pos, m, c
}

// sortRange is split's general case: octants from the key digits at
// `shift` if every body trusts its key that deep, else from the
// geometric test, then a stable scatter into octant order if the range
// is not in it already. It returns the kid runs as split lays them out.
func (b *binBuild) sortRange(lo, hi int32, keyed bool, shift uint, need uint64, center vec.V3, oct *[8]uint8, at *[9]int32) int {
	ft := b.ft
	octs := ft.octs[lo:hi]
	if keyed {
		for i, k := range ft.keys[lo:hi] {
			if k&trustBits <= need {
				keyed = false
				break
			}
			octs[i] = uint8(k >> shift & 7)
		}
	}
	if !keyed {
		for i, p := range ft.perm[lo:hi] {
			octs[i] = uint8(Octant(center, b.src.Pos[p]))
		}
	}
	var count [8]int32
	inOrder := true
	prev := uint8(0)
	for _, o := range octs {
		count[o]++
		inOrder = inOrder && o >= prev
		prev = o
	}
	var next [8]int32
	n := 0
	start := lo
	for o, c := range count {
		next[o] = start
		if c > 0 {
			oct[n], at[n], n = uint8(o), start, n+1
			start += c
		}
	}
	if !inOrder {
		// Stable counting scatter through the scratch, then copy back.
		for i, o := range octs {
			j := next[o]
			next[o]++
			ft.keyTmp[j], ft.permTmp[j] = ft.keys[lo+int32(i)], ft.perm[lo+int32(i)]
		}
		copy(ft.keys[lo:hi], ft.keyTmp[lo:hi])
		copy(ft.perm[lo:hi], ft.permTmp[lo:hi])
	}
	return n
}

// FlatBatchWidth is the number of bodies that share one tree traversal
// in the batched force kernel. Morton-adjacent bodies have almost
// identical walks, so one descent amortizes the node loads, kid scans
// and stack traffic across the lanes while each lane keeps its exact
// solo interaction sequence. The batch's lanes are also the SIMD lanes
// of the force kernel in lanes.go: two lane groups of eight, one ZMM
// register each (see laneGroup).
const FlatBatchWidth = 16

// FlatWalker is the per-walker scratch of the force kernel: the
// lane-transposed positions and accumulators, the traversal's frame stack
// and the portable kernel's shared masked interaction list. Many walkers
// (one per thread) can traverse one read-only FlatTree concurrently, each
// with its own FlatWalker; all buffers are retained, so steady-state
// walks perform zero allocations.
type FlatWalker struct {
	list  []laneEntry
	lanes laneState
	// frames is fixed-size because the assembly kernel writes it without
	// the runtime's help; flatMaxDepth+1 suffice (see forceLanesGo). It is
	// the last field so a test can put guard words right behind it.
	frames [flatMaxDepth + 1]kidRange
}

// FlatBatch carries up to FlatBatchWidth force queries through one
// shared traversal: fill N, Pos and Skip, call FlatWalker.ForceBatch,
// read Acc/Phi/Inter.
type FlatBatch struct {
	N     int
	Pos   [FlatBatchWidth]vec.V3
	Skip  [FlatBatchWidth]int32 // SoA slot to exclude per lane (-1: none)
	Acc   [FlatBatchWidth]vec.V3
	Phi   [FlatBatchWidth]float64
	Inter [FlatBatchWidth]int
}

// ForceBatch is the batched force kernel, run with the implementation
// this process selected at init (see Kernel): one tree traversal for all
// lanes, each lane accumulating exactly the interactions of its solo
// recursive walk in DFS order, so the result is bit-identical to the
// pointer walk's whichever implementation runs.
func (w *FlatWalker) ForceBatch(ft *FlatTree, b *FlatBatch, theta, eps float64) {
	w.forceBatch(ft, b, theta, eps, kernel)
}

func (w *FlatWalker) forceBatch(ft *FlatTree, b *FlatBatch, theta, eps float64, k *laneKernel) {
	n := b.N
	if len(ft.Nodes) == 0 || len(ft.Kids) == 0 || n == 0 {
		// Empty tree or batch: no interactions.
		for lane := 0; lane < n; lane++ {
			b.Acc[lane], b.Phi[lane], b.Inter[lane] = vec.V3{}, 0, 0
		}
		return
	}

	// Transpose the lane positions. Lanes past N never get a mask bit, so
	// they contribute nothing; they are parked on lane 0's position only
	// so the SIMD lanes never chew on stale values.
	st := &w.lanes
	for lane := 0; lane < FlatBatchWidth; lane++ {
		p := b.Pos[0]
		if lane < n {
			p = b.Pos[lane]
		}
		st.X[lane], st.Y[lane], st.Z[lane] = p.X, p.Y, p.Z
	}
	st.Skip = b.Skip
	k.force(w, ft, n, theta, eps)
	for lane := 0; lane < n; lane++ {
		b.Acc[lane] = vec.V3{X: st.AccX[lane], Y: st.AccY[lane], Z: st.AccZ[lane]}
		b.Phi[lane] = st.Phi[lane]
		b.Inter[lane] = int(st.Inter[lane])
	}
}

// SolveInto runs the full flat Barnes-Hut force computation and scatters
// Acc, Phi and Cost (interaction counts) back to bodies — the flat
// counterpart of Solve. The tree must have been built over bodies (so
// Bodies.ID indexes into it). Bodies are walked in Morton order in
// batches of FlatBatchWidth, so consecutive lanes share their descent.
func (ft *FlatTree) SolveInto(bodies []nbody.Body, theta, eps float64) {
	var fb FlatBatch
	n := ft.Bodies.Len()
	for j := 0; j < n; j += FlatBatchWidth {
		wdt := FlatBatchWidth
		if n-j < wdt {
			wdt = n - j
		}
		fb.N = wdt
		for lane := 0; lane < wdt; lane++ {
			fb.Pos[lane] = ft.Bodies.Pos[j+lane]
			fb.Skip[lane] = int32(j + lane)
		}
		ft.walker.ForceBatch(ft, &fb, theta, eps)
		for lane := 0; lane < wdt; lane++ {
			b := &bodies[ft.Bodies.ID[j+lane]]
			b.Acc = fb.Acc[lane]
			b.Phi = fb.Phi[lane]
			b.Cost = float64(fb.Inter[lane])
		}
	}
}

// KidOctant derives which octant of parent cell p a kid entry occupies
// (kid geometry determines it: a cell child's center, a leaf's position).
func (ft *FlatTree) KidOctant(p int32, kid int32) int {
	if kid < 0 {
		return Octant(ft.Meta[p].Center, ft.Bodies.Pos[FlatLeafBody(kid)])
	}
	return Octant(ft.Meta[p].Center, ft.Meta[kid].Center)
}

// Verify checks the flat tree's structural invariants and returns the
// first violation: DFS-preorder node layout, contiguous per-cell kid
// ranges in strictly increasing octant order, leaves numbered in DFS
// order, child cube nesting, body containment, additive aggregates, and
// full single-visit coverage of all three arenas.
func (ft *FlatTree) Verify() error {
	if len(ft.Nodes) == 0 {
		return fmt.Errorf("flat octree: no root node")
	}
	if len(ft.Nodes) != len(ft.Meta) {
		return fmt.Errorf("flat octree: %d nodes but %d meta records", len(ft.Nodes), len(ft.Meta))
	}
	if ft.Meta[0].Center != ft.Center || ft.Meta[0].Half != ft.Half {
		return fmt.Errorf("flat octree: root cube (%v,%g) != tree cube (%v,%g)",
			ft.Meta[0].Center, ft.Meta[0].Half, ft.Center, ft.Half)
	}
	nextNode := int32(1)
	nextBody := int32(0)
	kidsSeen := int32(0)
	var walk func(idx int32) error
	walk = func(idx int32) error {
		nd := &ft.Nodes[idx]
		mt := &ft.Meta[idx]
		if nd.Count < 0 || int(nd.First+nd.Count) > len(ft.Kids) {
			return fmt.Errorf("flat octree: cell %d kid range [%d,%d) out of bounds", idx, nd.First, nd.First+nd.Count)
		}
		kidsSeen += nd.Count
		var mass, cost float64
		var count int32
		var wsum vec.V3
		prevOct := -1
		for k := nd.First; k < nd.First+nd.Count; k++ {
			c := ft.Kids[k]
			oct := ft.KidOctant(idx, c)
			if oct <= prevOct {
				return fmt.Errorf("flat octree: cell %d kids not in strictly increasing octant order", idx)
			}
			prevOct = oct
			cc, chalf := ChildBounds(mt.Center, mt.Half, oct)
			if c < 0 {
				bi := FlatLeafBody(c)
				if bi != nextBody {
					return fmt.Errorf("flat octree: leaf body %d out of DFS order (want %d)", bi, nextBody)
				}
				nextBody++
				if !Contains(cc, chalf, ft.Bodies.Pos[bi]) {
					return fmt.Errorf("flat octree: body %d outside its octant", bi)
				}
				mass += ft.Bodies.Mass[bi]
				cost += ft.Bodies.Cost[bi]
				count++
				wsum = wsum.AddScaled(ft.Bodies.Pos[bi], ft.Bodies.Mass[bi])
				continue
			}
			if c != nextNode {
				return fmt.Errorf("flat octree: cell %d out of DFS order (want %d)", c, nextNode)
			}
			nextNode++
			ch := &ft.Nodes[c]
			cm := &ft.Meta[c]
			if cm.Center != cc || cm.Half != chalf {
				return fmt.Errorf("flat octree: child %d bounds mismatch: got (%v,%g) want (%v,%g)",
					oct, cm.Center, cm.Half, cc, chalf)
			}
			if l := 2 * cm.Half; ch.LSq != l*l {
				return fmt.Errorf("flat octree: child %d LSq %g != (2*half)^2 %g", oct, ch.LSq, l*l)
			}
			if cm.N < 2 {
				return fmt.Errorf("flat octree: non-root cell %d holds %d bodies (canonical cells hold >= 2)", c, cm.N)
			}
			if err := walk(c); err != nil {
				return err
			}
			mass += ch.Mass
			cost += cm.Cost
			count += cm.N
			wsum = wsum.AddScaled(ch.CofM, ch.Mass)
		}
		if mt.N != count {
			return fmt.Errorf("flat octree: cell %d body count %d != children sum %d", idx, mt.N, count)
		}
		if relDiff(mass, nd.Mass) > 1e-12 {
			return fmt.Errorf("flat octree: cell %d mass %g != children sum %g", idx, nd.Mass, mass)
		}
		if relDiff(cost, mt.Cost) > 1e-12 {
			return fmt.Errorf("flat octree: cell %d cost %g != children sum %g", idx, mt.Cost, cost)
		}
		if nd.Mass > 0 {
			cofm := wsum.Scale(1 / nd.Mass)
			if cofm.Sub(nd.CofM).Len() > 1e-9*(1+nd.CofM.Len()) {
				return fmt.Errorf("flat octree: cell %d cofm %v != children aggregate %v", idx, nd.CofM, cofm)
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return err
	}
	if int(nextNode) != len(ft.Nodes) {
		return fmt.Errorf("flat octree: %d of %d cells reachable", nextNode, len(ft.Nodes))
	}
	if int(nextBody) != ft.Bodies.Len() {
		return fmt.Errorf("flat octree: %d of %d bodies reachable", nextBody, ft.Bodies.Len())
	}
	if int(kidsSeen) != len(ft.Kids) {
		return fmt.Errorf("flat octree: %d of %d kid entries reachable", kidsSeen, len(ft.Kids))
	}
	return nil
}
