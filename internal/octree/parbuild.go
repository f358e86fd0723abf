package octree

import (
	"upcbh/internal/arena"
	"upcbh/internal/nbody"
	"upcbh/internal/vec"
)

// This file builds a FlatTree with several workers and no shared
// insertion: the paper's §6 idea (decompose space level-wise, build the
// pieces locally, hook them without locks) applied to the flat layout.
//
// The top `depth` levels of the root cube are the CROWN; the 8^depth
// cubes below it are the BINS, numbered in octant (= DFS = Morton) order.
// Every body is binned by the geometric Octant test — the test that
// defines the tree (split reads a key digit only where it agrees), never
// a Morton prefix — so a body on a cell face lands in the bin the
// canonical tree puts it in. Bins are dealt to workers as
// contiguous runs by cumulative body count, each worker builds its bins'
// subtrees with the ordinary AppendSubtree into a private segment, and
// the segments are copied into the one result tree at the positions
// DFS preorder gives them, with the few crown cells written in between.
//
// Because the octree over a body set is canonical and every aggregate is
// summed over children in octant order — in the segments by split,
// in the crown by place, which repeats split's operation sequence —
// the result does not depend on who built what: Tree is array for array,
// bit for bit, what RebuildWithRoot produces over the same bodies
// and root cube, at any worker count and any assignment of bodies to
// workers (FuzzParallelFlatBuild).
//
// A build is five stages with a barrier (the caller's) after each:
//
//	1  every worker   Count, over all of its bodies
//	2  every worker   Offsets, then Put for each body
//	3  every worker   Build
//	4  worker 0       Crown
//	5  every worker   Stitch
//
// Stage k reads only what stages < k wrote, and within a stage workers
// write disjoint memory, so the barriers are the only synchronization.

// maxCrownDepth bounds the crown: 8^4 = 4096 bins.
const maxCrownDepth = 4

// levelOff[l] is the index of the first cube of level l when the cubes of
// levels 0, 1, 2, … are laid end to end: (8^l - 1) / 7. Cube m of level l
// has children 8m … 8m+7 on level l+1.
var levelOff = [maxCrownDepth + 2]int32{0, 1, 9, 73, 585, 4681}

// CrownDepth is the crown depth for n bodies and the given worker count:
// zero with one worker or few bodies (the whole tree is one task), else
// the shallowest crown with at least 64 bins per worker, as long as bins
// keep four bodies on average — one more level costs every body one more
// Octant test. A function of (n, workers) alone, so every thread of a run,
// and a restored run, agree on it.
func CrownDepth(n, workers int) int {
	if workers == 1 || n < 512 {
		return 0
	}
	d := 0
	for d < maxCrownDepth && 1<<(3*d) < 64*workers && 4<<(3*(d+1)) <= n {
		d++
	}
	return d
}

// binSeg locates one bin's subtree inside its builder's segment. Only
// bins of two or more bodies have one; a stale record is never read.
type binSeg struct{ nodeLo, nNodes, kidLo, nKids int32 }

// ParBuild is the shared state of the parallel build; see the stage
// table above. Init once, then run the five stages per build.
type ParBuild struct {
	// Tree is the result, valid after stage 5 until the next stage 3.
	Tree FlatTree
	// Src is the bin-ordered staging view stage 2 fills. Tree.Bodies.ID[j]
	// is the Src slot tree slot j came from, so a caller-side array
	// indexed by Src slot (core: each body's ID) follows the bodies
	// into tree order.
	Src nbody.SoA

	n, depth int
	workers  []ParWorker

	segs          []binSeg // per bin; written by the bin's builder (stage 3)
	nodeAt, kidAt []int32  // per bin: where its segment goes in Tree (stage 4)

	// Stage 4 scratch: bodies per cube on every level, and the DFS cursor.
	count             []int32
	nextNode, nextKid int32
}

// ParWorker is one worker's private state.
type ParWorker struct {
	pb  *ParBuild
	id  int
	mem *arena.Arena

	center   vec.V3
	half     float64
	cent     []vec.V3 // crown cube centers, levels 0 … depth-1 (levelOff order)
	lastHalf float64  // half-side of the deepest crown level

	counts []int32 // per bin: this worker's bodies (read by all in stage 2)
	binOf  []int32 // per body of this worker: its bin
	first  []int32 // per bin: first slot, over all workers; first[bins] = n
	at     []int32 // per bin: this worker's next free slot

	seg FlatTree
}

// Init sizes the builder for n bodies, `workers` workers and the given
// crown depth (CrownDepth, or anything in [0, 4] for tests). Shared arrays
// grow through mem, worker w's through wmem[w]; either may be nil. Call it
// from one goroutine before the workers run.
func (pb *ParBuild) Init(n, workers, depth int, mem *arena.Arena, wmem []*arena.Arena) {
	if depth < 0 || depth > maxCrownDepth || n < 1 {
		panic("octree: parallel build needs a crown depth in [0, 4] and at least one body")
	}
	bins := 1 << (3 * depth)
	pb.n, pb.depth = n, depth
	pb.Tree.SetArena(mem)
	pb.Tree.Bodies.Resize(n)
	pb.Tree.PM = arena.MakeSlice[PosMass](mem, n, n)
	pb.Src.SetArena(mem)
	pb.Src.Resize(n)
	pb.segs = make([]binSeg, bins)
	pb.nodeAt = make([]int32, bins)
	pb.kidAt = make([]int32, bins)
	pb.count = make([]int32, levelOff[depth+1])
	pb.workers = make([]ParWorker, workers)
	for i := range pb.workers {
		w := &pb.workers[i]
		*w = ParWorker{pb: pb, id: i}
		if i < len(wmem) {
			w.mem = wmem[i]
		}
		w.seg.SetArena(w.mem)
		// A segment's cells are private; its bodies are Tree's own slots
		// (fixed from here on), so leaves name final positions.
		w.seg.Bodies, w.seg.PM = pb.Tree.Bodies, pb.Tree.PM
		w.cent = make([]vec.V3, levelOff[depth])
		w.counts = make([]int32, bins)
		w.first = make([]int32, bins+1)
		w.at = make([]int32, bins)
	}
}

// Worker returns worker i's handle.
func (pb *ParBuild) Worker(i int) *ParWorker { return &pb.workers[i] }

// Count is stage 1: it bins the worker's bodies, pos[i] its i-th, in
// the crown of the root cube (center, half), which every worker passes
// alike.
func (w *ParWorker) Count(center vec.V3, half float64, pos []vec.V3) {
	w.center, w.half = center, half
	clear(w.counts)
	n := len(pos)
	if cap(w.binOf) < n {
		w.binOf = arena.MakeSlice[int32](w.mem, n, max(n, 2*cap(w.binOf)))
	}
	w.binOf = w.binOf[:n]
	if w.pb.depth == 0 {
		clear(w.binOf)
		w.counts[0] = int32(n)
		return
	}
	// Crown cube centers, by the ChildBounds chain split follows.
	w.cent[0], w.lastHalf = center, half
	for l := 1; l < w.pb.depth; l++ {
		var q float64
		for m := int32(0); m < 1<<(3*l); m++ {
			w.cent[levelOff[l]+m], q = ChildBounds(w.cent[levelOff[l-1]+m>>3], w.lastHalf, int(m&7))
		}
		w.lastHalf = q
	}
	for i, p := range pos {
		m := int32(0)
		for l := 0; l < w.pb.depth; l++ {
			m = m<<3 | int32(Octant(w.cent[levelOff[l]+m], p))
		}
		w.binOf[i] = m
		w.counts[m]++
	}
}

// Offsets opens stage 2: from every worker's counts, the first slot of
// each bin and this worker's share of it (workers fill a bin in worker
// order). Every worker derives the same `first`.
func (w *ParWorker) Offsets() {
	run := int32(0)
	for b := range w.at {
		w.first[b] = run
		for i := range w.pb.workers {
			if i == w.id {
				w.at[b] = run
			}
			run += w.pb.workers[i].counts[b]
		}
	}
	w.first[len(w.at)] = run
	if int(run) != w.pb.n {
		panic("octree: parallel build counted a different number of bodies than it was sized for")
	}
}

// Put stages the worker's i-th body (cost already clamped) in its bin and
// returns the Src slot it took, for the caller's side arrays.
func (w *ParWorker) Put(i int, pos vec.V3, mass, cost float64) int32 {
	b := w.binOf[i]
	k := w.at[b]
	w.at[b] = k + 1
	w.pb.Src.Set(int(k), pos, mass, cost, 0)
	return k
}

// builder names the worker that builds the (non-empty) bin whose first
// slot is lo: bins go to workers by where their cumulative body count
// starts, the costzones claim rule, which deals contiguous runs of
// near-equal weight.
func (pb *ParBuild) builder(lo int32) int {
	return int(int64(lo) * int64(len(pb.workers)) / int64(pb.n))
}

// Build is stage 3: the subtrees of this worker's bins, appended to its
// segment, over bodies gathered straight into their final Tree slots (a
// bin's slots are the same in Src and in Tree). With no crown the one bin
// is the root cube and its builder works in Tree itself.
func (w *ParWorker) Build() {
	pb := w.pb
	seg := &w.seg
	if pb.depth == 0 {
		if w.id != 0 {
			return // the one bin starts at slot 0, which worker 0 builds
		}
		seg = &pb.Tree
	}
	seg.Nodes, seg.Meta, seg.Kids = seg.Nodes[:0], seg.Meta[:0], seg.Kids[:0]
	for b := range w.at {
		lo, hi := w.first[b], w.first[b+1]
		if lo == hi || pb.builder(lo) != w.id {
			continue
		}
		if hi-lo == 1 && pb.depth > 0 {
			// A lone body is a leaf of the crown cell above it.
			seg.Bodies.CopySlot(int(lo), &pb.Src, int(lo))
			seg.Bodies.ID[lo] = lo
			seg.PM[lo] = PosMass{Pos: seg.Bodies.Pos[lo], Mass: seg.Bodies.Mass[lo]}
		} else {
			c, h := w.center, w.half
			if pb.depth > 0 {
				c, h = ChildBounds(w.cent[levelOff[pb.depth-1]+int32(b)>>3], w.lastHalf, b&7)
			}
			nl, kl := int32(len(seg.Nodes)), int32(len(seg.Kids))
			seg.AppendSubtree(&pb.Src, lo, hi, c, h, pb.depth)
			pb.segs[b] = binSeg{nl, int32(len(seg.Nodes)) - nl, kl, int32(len(seg.Kids)) - kl}
		}
	}
}

// Crown is stage 4, on worker 0 alone: count bodies per crown cube, lay
// the crown cells and the bins' segments out in DFS preorder, size Tree's
// arrays, and write the crown cells.
func (pb *ParBuild) Crown() {
	t := &pb.Tree
	w := &pb.workers[0]
	t.Center, t.Half = w.center, w.half
	if pb.depth == 0 {
		return
	}
	bins := int32(len(w.at))
	nodes, kids := int32(0), int32(0)
	for b := int32(0); b < bins; b++ {
		k := w.first[b+1] - w.first[b]
		pb.count[levelOff[pb.depth]+b] = k
		if k >= 2 {
			nodes += pb.segs[b].nNodes
			kids += pb.segs[b].nKids
		}
	}
	for c := levelOff[pb.depth] - 1; c >= 0; c-- {
		// In levelOff order the children of cube c are cubes 8c+1 … 8c+8.
		k, nk := int32(0), int32(0)
		for oct := int32(1); oct <= 8; oct++ {
			if ck := pb.count[8*c+oct]; ck > 0 {
				k += ck
				nk++
			}
		}
		pb.count[c] = k
		if k >= 2 || c == 0 { // a cell (a cube with one body is a leaf of its parent)
			nodes++
			kids += nk
		}
	}
	t.Nodes = resize(t.mem, t.Nodes, int(nodes))
	t.Meta = resize(t.mem, t.Meta, int(nodes))
	t.Kids = resize(t.mem, t.Kids, int(kids))
	pb.nextNode, pb.nextKid = 0, 0
	pb.place(0, 0, w.center, w.half)
}

// resize returns s with length n, growing through a with slack (contents
// are not kept: the caller rewrites every element).
func resize[T any](a *arena.Arena, s []T, n int) []T {
	if cap(s) < n {
		s = arena.MakeSlice[T](a, n, max(n+n/4, 2*cap(s)))
	}
	return s[:n]
}

// place gives cube m of level l (>= 2 bodies, or the root) the next free
// positions of Tree in DFS preorder and returns its cell's index. For a
// bin that records where Stitch copies the segment; for a crown cube it
// reserves the kid block, places the children in octant order and writes
// the cell, aggregating them in that order with split's exact
// AddScaled / Scale(1/mass) sequence — the values the serial build
// computes for this cell.
func (pb *ParBuild) place(l int, m int32, center vec.V3, half float64) int32 {
	idx := pb.nextNode
	if l == pb.depth {
		pb.nodeAt[m], pb.kidAt[m] = idx, pb.nextKid
		pb.nextNode += pb.segs[m].nNodes
		pb.nextKid += pb.segs[m].nKids
		return idx
	}
	t := &pb.Tree
	pb.nextNode++
	first := pb.nextKid
	child := levelOff[l+1] + 8*m
	for oct := int32(0); oct < 8; oct++ {
		if pb.count[child+oct] > 0 {
			pb.nextKid++
		}
	}
	ki := first
	var wsum vec.V3
	var mass, cost float64
	var nb int32
	for oct := int32(0); oct < 8; oct++ {
		k := pb.count[child+oct]
		if k == 0 {
			continue
		}
		cm := 8*m + oct
		if k == 1 {
			// The cube's one body sits at the first slot of its bin range.
			bi := pb.workers[0].first[cm<<(3*(pb.depth-l-1))]
			t.Kids[ki] = FlatLeaf(bi)
			bm := t.Bodies.Mass[bi]
			wsum = wsum.AddScaled(t.Bodies.Pos[bi], bm)
			mass += bm
			cost += t.Bodies.Cost[bi]
			nb++
		} else {
			cc, ch := ChildBounds(center, half, int(oct))
			ci := pb.place(l+1, cm, cc, ch)
			t.Kids[ki] = ci
			nd, mt := &t.Nodes[ci], &t.Meta[ci]
			if l+1 == pb.depth {
				// A bin's root is still in its builder's segment.
				seg := &pb.workers[pb.builder(pb.workers[0].first[cm])].seg
				nd, mt = &seg.Nodes[pb.segs[cm].nodeLo], &seg.Meta[pb.segs[cm].nodeLo]
			}
			wsum = wsum.AddScaled(nd.CofM, nd.Mass)
			mass += nd.Mass
			cost += mt.Cost
			nb += mt.N
		}
		ki++
	}
	cofm := center
	if mass > 0 {
		cofm = wsum.Scale(1 / mass)
	}
	side := 2 * half
	t.Nodes[idx] = FlatNode{CofM: cofm, Mass: mass, LSq: side * side, First: first, Count: ki - first}
	t.Meta[idx] = FlatMeta{Center: center, Half: half, Cost: cost, N: nb}
	return idx
}

// Stitch is stage 5: copy this worker's bins' segments to the positions
// Crown gave them, rebasing kid ranges and child-cell indices. Leaf
// entries already name final Tree slots.
func (w *ParWorker) Stitch() {
	pb := w.pb
	if pb.depth == 0 {
		return
	}
	t := &pb.Tree
	for b := range w.at {
		lo, hi := w.first[b], w.first[b+1]
		if hi-lo < 2 || pb.builder(lo) != w.id {
			continue
		}
		sg := pb.segs[b]
		dn, dk := pb.nodeAt[b]-sg.nodeLo, pb.kidAt[b]-sg.kidLo
		for i := sg.nodeLo; i < sg.nodeLo+sg.nNodes; i++ {
			nd := w.seg.Nodes[i]
			nd.First += dk
			t.Nodes[i+dn] = nd
		}
		copy(t.Meta[pb.nodeAt[b]:], w.seg.Meta[sg.nodeLo:sg.nodeLo+sg.nNodes])
		for i := sg.kidLo; i < sg.kidLo+sg.nKids; i++ {
			c := w.seg.Kids[i]
			if c >= 0 {
				c += dn
			}
			t.Kids[i+dk] = c
		}
	}
}
