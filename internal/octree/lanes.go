package octree

import (
	"math"
	"math/bits"
)

// This file holds the lane layout of the batched force kernel and its
// portable implementation: a two-phase walk (forceLanesGo) built from the
// opening test of one cell for all the batch's lanes (acceptLanesGo) and
// the interaction loop over the batch's shared masked list
// (interactLanesGo). On amd64 hosts with AVX2 or AVX-512 a fused assembly
// kernel in lanes_amd64.s replaces the whole walk; the Go version here is
// the fallback everywhere else and the oracle the assembly is tested
// against (==, not a tolerance).

// laneGroup is the number of lanes in one lane group: the float64 lanes of
// one ZMM register, which the AVX-512 kernel interacts in one pass, and
// the lanes one walk of the AVX2 kernel carries. A batch of
// FlatBatchWidth lanes is two groups, lanes 0-7 and lanes 8-15.
const laneGroup = 8

// laneEntry is one record of a batch's shared interaction list: a cell's
// centre of mass (or a leaf's body) and the lanes that interact with it.
// Only the low FlatBatchWidth bits of Mask are ever set; bits 0-7 are the
// first lane group, bits 8-15 the second.
type laneEntry struct {
	PosMass
	Mask uint32
}

// kidRange is one suspended DFS frame: the kid entries [k, e) still to
// visit in some cell, and the mask of batch lanes active there. Opening
// a cell pushes the remainder of the current frame and continues into
// the child's range — one push per opened cell instead of one per child.
// Padded to 16 bytes; the layout is known to lanes_amd64.s.
type kidRange struct {
	k, e int32
	mask uint32
	_    uint32
}

// laneState is the lane-transposed scratch of one batch: the lanes'
// positions as structure-of-arrays, the per-lane results a kernel writes,
// and each lane's self-skip slot. Each lane array is two lane groups of
// 64 bytes: lanes 0-7, one ZMM register of the AVX-512 kernel (two 4-wide
// halves for the AVX2 kernel), then lanes 8-15, the second. The field
// offsets are known to lanes_amd64.s.
type laneState struct {
	X, Y, Z          [FlatBatchWidth]float64
	AccX, AccY, AccZ [FlatBatchWidth]float64
	Phi              [FlatBatchWidth]float64
	Inter            [FlatBatchWidth]int64
	Skip             [FlatBatchWidth]int32 // lanes past the batch's N: stale, never read through a mask bit
}

// laneKernel is one implementation of the batch walk. force runs the
// whole traversal for the n-lane batch whose positions and Skip slots are
// already in w.lanes and overwrites w.lanes' accumulators with, per lane, the
// sum over what that lane's solo recursive walk interacts with, in DFS
// order, of nbody.InteractAccum's terms — the same operation shapes and
// order (((dx²+dy²)+dz²)+ε², 1/sqrt, ((m·inv)·inv)·inv, no fused
// multiply-add) and no cross-lane reduction — and the count of those
// interactions. The opening test is LSq < thetaSq * |pos-CofM|^2, the
// squared form of l/d < theta, with the distance summed as (dx²+dy²)+dz²
// like vec.Dist2.
type laneKernel struct {
	name  string
	force func(w *FlatWalker, ft *FlatTree, n int, theta, eps float64)
}

var portableKernel = laneKernel{"portable", (*FlatWalker).forceLanesGo}

// kernel is the implementation ForceBatch runs, chosen once at init: the
// widest SIMD kernel the CPU can run, else the portable one. The CPU (and
// the purego build tag) are the only selectors.
var kernel = func() *laneKernel {
	if ks := simdKernels(); len(ks) > 0 {
		return ks[len(ks)-1]
	}
	return &portableKernel
}()

// Kernel names the force-kernel implementation this process's flat force
// walks run: "avx512", "avx2" or "portable".
func Kernel() string { return kernel.name }

// forceLanesGo is the portable kernel, in two phases.
//
// Phase 1 walks the tree once for all lanes with an explicit stack of
// (kid range, active-lane mask) frames, starting at the root as the first
// cell visited. A visited cell's opening test is evaluated for all lanes
// at once; when any active lane accepts, ONE {position, mass, lane mask}
// entry goes onto the batch's shared list (a leaf's mask is the frame
// mask minus the lanes it is the self-skip of). A lane that accepts a
// cell is masked out of that cell's subtree only, so the subsequence of
// entries carrying a lane's bit is exactly — in content and order — what
// its solo recursive walk would interact with.
//
// Phase 2 streams the list through the interaction kernel, every lane
// accumulating its own masked entries in list order, so the result is
// bit-identical to the recursive pointer walk's.
func (w *FlatWalker) forceLanesGo(ft *FlatTree, n int, theta, eps float64) {
	thetaSq := theta * theta
	nodes, kids, pm := ft.Nodes, ft.Kids, ft.PM
	st := &w.lanes
	skipLo, skipHi := st.Skip[0], st.Skip[0]
	for lane := 1; lane < n; lane++ {
		skipLo, skipHi = min(skipLo, st.Skip[lane]), max(skipHi, st.Skip[lane])
	}
	list := w.list[:0]

	sp := 0
	cur := kidRange{mask: uint32(1)<<uint(n) - 1} // no kids left: the root has no siblings
	c := int32(0)                                 // the root
	for {
		if c < 0 {
			bi := FlatLeafBody(c)
			m := cur.mask
			if bi >= skipLo && bi <= skipHi {
				for lane := 0; lane < n; lane++ {
					if st.Skip[lane] == bi {
						m &^= 1 << uint(lane)
					}
				}
			}
			if m != 0 {
				list = append(list, laneEntry{pm[bi], m})
			}
		} else {
			nd := &nodes[c]
			// Accepting masks the lane out of this subtree only — siblings
			// keep the frame's mask.
			acc := acceptLanesGo(st, nd, thetaSq, cur.mask)
			if acc != 0 {
				list = append(list, laneEntry{PosMass{nd.CofM, nd.Mass}, acc})
			}
			if open := cur.mask &^ acc; open != 0 {
				// Open the cell: suspend the rest of this frame, continue in
				// the child's kid range — exactly the recursive DFS order.
				// A frame is pushed only for a cell with kids left, one per
				// tree level, so flatMaxDepth+1 frames hold any flat tree
				// (the index panics on a deeper, hand-made one).
				if cur.k < cur.e {
					w.frames[sp] = cur
					sp++
				}
				cur = kidRange{k: nd.First, e: nd.First + nd.Count, mask: open}
			}
		}
		for cur.k >= cur.e {
			if sp == 0 {
				w.list = list
				interactLanesGo(list, st, eps*eps)
				return
			}
			sp--
			cur = w.frames[sp]
		}
		c = kids[cur.k]
		cur.k++
	}
}

// acceptLanesGo returns the subset of the active lanes whose opening test
// accepts nd.
func acceptLanesGo(st *laneState, nd *FlatNode, thetaSq float64, active uint32) uint32 {
	cx, cy, cz, lsq := nd.CofM.X, nd.CofM.Y, nd.CofM.Z, nd.LSq
	acc := uint32(0)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m) & (FlatBatchWidth - 1) // & 15: no bounds checks
		dx, dy, dz := st.X[lane]-cx, st.Y[lane]-cy, st.Z[lane]-cz
		if lsq < thetaSq*(dx*dx+dy*dy+dz*dz) {
			acc |= 1 << uint(lane)
		}
	}
	return acc
}

// interactLanesGo overwrites st's accumulators with, per lane, the sum
// over the list entries carrying that lane's bit, in list order.
func interactLanesGo(list []laneEntry, st *laneState, epsSq float64) {
	var accX, accY, accZ, phi [FlatBatchWidth]float64
	var inter [FlatBatchWidth]int64
	for i := range list {
		q := &list[i]
		for m := q.Mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m) & (FlatBatchWidth - 1)
			dx, dy, dz := q.Pos.X-st.X[lane], q.Pos.Y-st.Y[lane], q.Pos.Z-st.Z[lane]
			inv := 1 / math.Sqrt(dx*dx+dy*dy+dz*dz+epsSq)
			s := q.Mass * inv * inv * inv
			accX[lane] += dx * s
			accY[lane] += dy * s
			accZ[lane] += dz * s
			phi[lane] += -q.Mass * inv
			inter[lane]++
		}
	}
	st.AccX, st.AccY, st.AccZ, st.Phi, st.Inter = accX, accY, accZ, phi, inter
}
