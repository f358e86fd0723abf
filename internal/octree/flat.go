package octree

import (
	"fmt"
	"math"

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
	// Bodies.ID[i] is the index of slot i in the slice Rebuild was given
	// (or the Body.ID when the tree was converted with FromTree).
	Bodies nbody.SoA

	// PM mirrors Bodies.Pos/Bodies.Mass as packed interaction records;
	// refreshed by PackPM after a build/conversion.
	PM []PosMass

	// Rebuild scratch, retained across steps.
	keys    []uint64
	keyTmp  []uint64
	perm    []int32
	permTmp []int32
	scatter nbody.SoA

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
	ft.scatter.SetArena(a)
}

// BuildFlat constructs a flat tree over bodies with the root cube derived
// from their bounding box, exactly as Build does for the pointer tree.
func BuildFlat(bodies []nbody.Body) *FlatTree {
	ft := &FlatTree{}
	ft.Rebuild(bodies)
	return ft
}

// Rebuild reconstructs the tree over bodies, reusing all arenas, and
// packs the PM interaction records for force walks.
func (ft *FlatTree) Rebuild(bodies []nbody.Body) {
	lo, hi := nbody.BoundingBox(bodies)
	center, half := nbody.RootCell(lo, hi)
	ft.RebuildWithRoot(bodies, center, half)
	ft.PackPM()
}

// RebuildWithRoot reconstructs the tree over bodies inside the given root
// cube (which must contain them), reusing all arenas. An empty body set
// yields a lone empty root cell.
//
// It does NOT refresh the packed PM records — callers that will run
// force walks must call PackPM() afterwards (Rebuild does); callers
// that only read the structure skip that pass.
func (ft *FlatTree) RebuildWithRoot(bodies []nbody.Body, center vec.V3, half float64) {
	n := len(bodies)
	ft.Center, ft.Half = center, half
	ft.Nodes = ft.Nodes[:0]
	ft.Meta = ft.Meta[:0]
	ft.Kids = ft.Kids[:0]

	// Morton-sort a permutation of the input, then gather the SoA views
	// in sorted order: the build below then streams over (nearly) final
	// memory, and the finished SoA enumerates leaves in DFS order.
	ft.ensureScratch(n)
	for i := range bodies {
		ft.keys[i] = Morton(bodies[i].Pos, center, half)
		ft.perm[i] = int32(i)
	}
	radixSortByKey(ft.keys, ft.perm, ft.keyTmp, ft.permTmp)
	ft.Bodies.Resize(n)
	for j := 0; j < n; j++ {
		i := ft.perm[j]
		b := &bodies[i]
		ft.Bodies.Set(j, b.Pos, b.Mass, b.Cost, i)
	}

	root := ft.newNode(center, half)
	ft.buildRange(root, 0, int32(n), 0)
}

// AppendSubtree is the append-mode entry point of the parallel builder
// (parbuild.go): it Morton-sorts the bodies in slots [lo, hi) of src
// within the cube (center, half), gathers them into the SAME slots of
// ft.Bodies (Bodies.ID records the src slot each came from), and appends
// the cell covering that cube at tree depth `depth`, with its whole
// subtree, to Nodes/Meta/Kids — leaving everything already in ft alone.
// The subtree is what RebuildWithRoot builds under that cube: the same
// sort, the same buildRange. It returns the new cell's index; the caller
// sizes ft.Bodies and packs PM.
func (ft *FlatTree) AppendSubtree(src *nbody.SoA, lo, hi int32, center vec.V3, half float64, depth int) int32 {
	n := int(hi - lo)
	ft.ensureScratch(n)
	for i := 0; i < n; i++ {
		ft.keys[i] = Morton(src.Pos[int(lo)+i], center, half)
		ft.perm[i] = lo + int32(i)
	}
	radixSortByKey(ft.keys, ft.perm, ft.keyTmp, ft.permTmp)
	for j, i := range ft.perm {
		ft.Bodies.Set(int(lo)+j, src.Pos[i], src.Mass[i], src.Cost[i], i)
	}
	ci := ft.newNode(center, half)
	ft.buildRange(ci, lo, hi, depth)
	return ci
}

// PackPM derives the packed PM interaction records from the (final) SoA
// order; the force kernels read PM, so it must run after any rebuild or
// conversion and before the first walk.
func (ft *FlatTree) PackPM() {
	n := ft.Bodies.Len()
	if cap(ft.PM) < n {
		ft.PM = arena.MakeSlice[PosMass](ft.mem, n, n)
	}
	ft.PM = ft.PM[:n]
	for i := 0; i < n; i++ {
		ft.PM[i] = PosMass{Pos: ft.Bodies.Pos[i], Mass: ft.Bodies.Mass[i]}
	}
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
	}
	ft.keys = ft.keys[:n]
	ft.keyTmp = ft.keyTmp[:n]
	ft.perm = ft.perm[:n]
	ft.permTmp = ft.permTmp[:n]
	ft.scatter.Resize(n)
}

func (ft *FlatTree) newNode(center vec.V3, half float64) int32 {
	l := 2 * half
	ft.Nodes = arena.Append(ft.mem, ft.Nodes, FlatNode{LSq: l * l})
	ft.Meta = arena.Append(ft.mem, ft.Meta, FlatMeta{Center: center, Half: half})
	return int32(len(ft.Nodes) - 1)
}

// buildRange subdivides the body range [lo, hi) under node idx (whose
// Center/Half are set) and fills its children and aggregates. The range
// is partitioned by the same Octant test the pointer builder uses —
// Morton order already groups octants except for float-rounding edge
// cases near cell boundaries, so the stable scatter fallback almost
// never runs, but it keeps the structure exactly canonical when the
// quantized Morton grid and the geometric test disagree.
//
// Cells recurse in octant order immediately after their kid slot is
// reserved, which makes the node arena DFS preorder and each cell's kid
// entries contiguous.
func (ft *FlatTree) buildRange(idx, lo, hi int32, depth int) {
	if depth > flatMaxDepth {
		panic("octree: flat build depth limit exceeded (coincident bodies?)")
	}
	center := ft.Meta[idx].Center
	half := ft.Meta[idx].Half

	var count [8]int32
	inOrder := true
	prev := -1
	for i := lo; i < hi; i++ {
		o := Octant(center, ft.Bodies.Pos[i])
		count[o]++
		if o < prev {
			inOrder = false
		}
		prev = o
	}
	if !inOrder {
		ft.scatterRange(lo, hi, center, count)
	}

	// Reserve this cell's kid slots before recursing so they stay
	// contiguous while grandchildren append theirs.
	first := int32(len(ft.Kids))
	nkids := int32(0)
	for oct := 0; oct < 8; oct++ {
		if count[oct] > 0 {
			nkids++
		}
	}
	for k := int32(0); k < nkids; k++ {
		ft.Kids = arena.Append(ft.mem, ft.Kids, 0)
	}
	ft.Nodes[idx].First = first
	ft.Nodes[idx].Count = nkids

	ki := first
	start := lo
	for oct := 0; oct < 8; oct++ {
		cnt := count[oct]
		switch {
		case cnt == 0:
			continue
		case cnt == 1:
			ft.Kids[ki] = FlatLeaf(start)
		default:
			cc, ch := ChildBounds(center, half, oct)
			if ch <= 0 || math.IsNaN(ch) {
				panic("octree: cannot split further (coincident bodies?)")
			}
			ci := ft.newNode(cc, ch)
			ft.Kids[ki] = ci
			ft.buildRange(ci, start, start+cnt, depth+1)
		}
		ki++
		start += cnt
	}

	// Aggregate in octant order — the identical operation sequence as
	// computeCofM on the pointer tree, so the values agree bit for bit.
	var wsum vec.V3
	var mass, cost float64
	var nb int32
	for k := first; k < first+nkids; k++ {
		c := ft.Kids[k]
		if c < 0 {
			bi := FlatLeafBody(c)
			m := ft.Bodies.Mass[bi]
			wsum = wsum.AddScaled(ft.Bodies.Pos[bi], m)
			mass += m
			cost += ft.Bodies.Cost[bi]
			nb++
			continue
		}
		ch := &ft.Nodes[c]
		wsum = wsum.AddScaled(ch.CofM, ch.Mass)
		mass += ch.Mass
		cost += ft.Meta[c].Cost
		nb += ft.Meta[c].N
	}
	cofm := center
	if mass > 0 {
		cofm = wsum.Scale(1 / mass)
	}
	nd := &ft.Nodes[idx]
	nd.CofM, nd.Mass = cofm, mass
	mt := &ft.Meta[idx]
	mt.Cost, mt.N = cost, nb
}

// scatterRange stably reorders the SoA range [lo, hi) into octant groups
// (counting scatter through the scratch view, then copy back).
func (ft *FlatTree) scatterRange(lo, hi int32, center vec.V3, count [8]int32) {
	var at [8]int32
	sum := int32(0)
	for oct := 0; oct < 8; oct++ {
		at[oct] = sum
		sum += count[oct]
	}
	for i := lo; i < hi; i++ {
		o := Octant(center, ft.Bodies.Pos[i])
		ft.scatter.CopySlot(int(at[o]), &ft.Bodies, int(i))
		at[o]++
	}
	for i := lo; i < hi; i++ {
		ft.Bodies.CopySlot(int(i), &ft.scatter, int(i-lo))
	}
}

// radixSortByKey sorts (keys, perm) pairs by key, stably. In steady
// state the input is the previous step's Morton order, nearly sorted, so
// a stable insertion pass with a budget of 4n moves usually finishes the
// job; when the budget runs out the LSD radix passes (8-bit digits,
// constant-byte passes skipped) take over on the partly sorted input.
// Both sorts are stable and the insertion pass only moves a key past
// greater ones, so the output is the stable sort of the input either
// way. Scratch slices must match the input length; no allocations.
func radixSortByKey(keys []uint64, perm []int32, keyTmp []uint64, permTmp []int32) {
	n := len(keys)
	if n < 2 || insertionSortByKey(keys, perm, 4*n) {
		return
	}
	var count [256]int32
	src, dst := keys, keyTmp
	psrc, pdst := perm, permTmp
	swapped := false
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, k := range src {
			count[(k>>shift)&0xff]++
		}
		if count[(src[0]>>shift)&0xff] == int32(n) {
			continue // all keys share this byte
		}
		sum := int32(0)
		for i := 0; i < 256; i++ {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range src {
			b := (k >> shift) & 0xff
			j := count[b]
			count[b]++
			dst[j] = k
			pdst[j] = psrc[i]
		}
		src, dst = dst, src
		psrc, pdst = pdst, psrc
		swapped = !swapped
	}
	if swapped {
		copy(keys, src)
		copy(perm, psrc)
	}
}

// insertionSortByKey is radixSortByKey's first pass: a stable insertion
// sort that gives up once it has made more than budget moves. It reports
// whether the pairs are sorted; when it gives up they are a stable
// rearrangement of the input (a sorted prefix, the rest untouched).
func insertionSortByKey(keys []uint64, perm []int32, budget int) bool {
	for i := 1; i < len(keys); i++ {
		k, p := keys[i], perm[i]
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j], perm[j] = keys[j-1], perm[j-1]
		}
		keys[j], perm[j] = k, p
		if budget -= i - j; budget < 0 {
			return false
		}
	}
	return true
}

// FlatBatchWidth is the number of bodies that share one tree traversal
// in the batched force kernel. Morton-adjacent bodies have almost
// identical walks, so one descent amortizes the node loads, kid scans
// and stack traffic across the lanes while each lane keeps its exact
// solo interaction sequence. The batch's lanes are also the SIMD lanes
// of the force kernel in lanes.go (two 4-wide float64 halves).
const FlatBatchWidth = 8

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

// ForceOn computes the Barnes-Hut force on the body in SoA slot `body`
// (skipping it), mirroring Tree.ForceOn: same acceptance test, same
// interaction kernel, same DFS child order, so for equal trees the
// results agree bit for bit. Zero allocations once the internal walker
// has warmed up.
func (ft *FlatTree) ForceOn(body int32, theta, eps float64) (acc vec.V3, phi float64, inter int) {
	return ft.walker.Force(ft, ft.Bodies.Pos[body], body, theta, eps)
}

// Force is the single-body entry point: a one-lane batch.
func (w *FlatWalker) Force(ft *FlatTree, pos vec.V3, skip int32, theta, eps float64) (acc vec.V3, phi float64, inter int) {
	var b FlatBatch
	b.N = 1
	b.Pos[0] = pos
	b.Skip[0] = skip
	w.ForceBatch(ft, &b, theta, eps)
	return b.Acc[0], b.Phi[0], b.Inter[0]
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
	// so the SIMD halves never chew on stale values.
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

// SolveFlat is the drop-in flat equivalent of Solve: build a flat tree
// over bodies and write forces in place.
func SolveFlat(bodies []nbody.Body, theta, eps float64) {
	ft := BuildFlat(bodies)
	ft.SolveInto(bodies, theta, eps)
}

// KidOctant derives which octant of parent cell p a kid entry occupies
// (kid geometry determines it: a cell child's center, a leaf's position).
func (ft *FlatTree) KidOctant(p int32, kid int32) int {
	if kid < 0 {
		return Octant(ft.Meta[p].Center, ft.Bodies.Pos[FlatLeafBody(kid)])
	}
	return Octant(ft.Meta[p].Center, ft.Meta[kid].Center)
}

// FlatFromTree converts a pointer tree (with aggregates computed) into a
// fresh flat tree: DFS preorder, octant child order, aggregate values
// copied verbatim. Bodies.ID carries each leaf's Body.ID.
func FlatFromTree(t *Tree) *FlatTree {
	ft := &FlatTree{}
	ft.FromTree(t)
	return ft
}

// FromTree rebuilds ft from a pointer tree, reusing arenas. Like the flat
// build, it panics on a tree deeper than flatMaxDepth.
func (ft *FlatTree) FromTree(t *Tree) {
	ft.Center, ft.Half = t.Root.Center, t.Root.Half
	ft.Nodes = ft.Nodes[:0]
	ft.Meta = ft.Meta[:0]
	ft.Kids = ft.Kids[:0]
	ft.Bodies.Resize(0)
	ft.convCell(t.Root, 0)
	ft.PackPM()
}

func (ft *FlatTree) convCell(n *Node, depth int) int32 {
	if depth > flatMaxDepth {
		panic("octree: flat tree depth limit exceeded (coincident bodies?)")
	}
	idx := ft.newNode(n.Center, n.Half)
	first := int32(len(ft.Kids))
	nkids := int32(0)
	for _, ch := range n.Child {
		if ch != nil {
			nkids++
		}
	}
	for k := int32(0); k < nkids; k++ {
		ft.Kids = arena.Append(ft.mem, ft.Kids, 0)
	}
	ft.Nodes[idx].First = first
	ft.Nodes[idx].Count = nkids
	ki := first
	for _, ch := range n.Child {
		if ch == nil {
			continue
		}
		if ch.IsLeaf() {
			b := ch.Body
			bi := ft.Bodies.Len()
			ft.Bodies.Resize(bi + 1)
			ft.Bodies.Set(bi, b.Pos, b.Mass, b.Cost, b.ID)
			ft.Kids[ki] = FlatLeaf(int32(bi))
		} else {
			ft.Kids[ki] = ft.convCell(ch, depth+1)
		}
		ki++
	}
	nd := &ft.Nodes[idx]
	nd.CofM, nd.Mass = n.CofM, n.Mass
	mt := &ft.Meta[idx]
	mt.Cost, mt.N = n.Cost, int32(n.N)
	return idx
}

// ToTree converts the flat tree back into a pointer tree with freshly
// allocated nodes and body records (Pos/Mass/Cost/ID populated from the
// SoA views); aggregates are copied verbatim. The result satisfies
// Tree.Verify for any structurally valid flat tree.
func (ft *FlatTree) ToTree() *Tree {
	bodies := make([]nbody.Body, ft.Bodies.Len())
	for i := range bodies {
		bodies[i] = nbody.Body{
			Pos:  ft.Bodies.Pos[i],
			Mass: ft.Bodies.Mass[i],
			Cost: ft.Bodies.Cost[i],
			ID:   ft.Bodies.ID[i],
		}
	}
	t := &Tree{Leaf: len(bodies)}
	t.Root = ft.convNode(0, bodies)
	t.Cells = len(ft.Nodes)
	return t
}

func (ft *FlatTree) convNode(idx int32, bodies []nbody.Body) *Node {
	fn := &ft.Nodes[idx]
	mt := &ft.Meta[idx]
	n := &Node{
		Center: mt.Center, Half: mt.Half,
		CofM: fn.CofM, Mass: fn.Mass, Cost: mt.Cost, N: int(mt.N),
	}
	for k := fn.First; k < fn.First+fn.Count; k++ {
		c := ft.Kids[k]
		oct := ft.KidOctant(idx, c)
		if c < 0 {
			b := &bodies[FlatLeafBody(c)]
			n.Child[oct] = &Node{
				Body: b, CofM: b.Pos, Mass: b.Mass, Cost: b.Cost, N: 1,
			}
		} else {
			n.Child[oct] = ft.convNode(c, bodies)
		}
	}
	return n
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
