package octree

import (
	"math"
	"math/bits"
)

// This file holds the lane layout of the batched force kernel and the
// portable versions of its two leaf kernels. FlatWalker.forceBatch owns
// the one traversal; the leaf kernels only ever see eight lanes of
// positions, one cell, and the shared masked interaction list. On amd64
// hosts with AVX2 the assembly twins in lanes_amd64.s replace them; the
// Go versions here are the fallback everywhere else and the oracle the
// assembly is tested against (==, not a tolerance).

// laneEntry is one record of a batch's shared interaction list: a cell's
// centre of mass (or a leaf's body) and the lanes that interact with it.
// Only the low FlatBatchWidth bits of Mask are ever set; it is a uint64
// so the AVX2 kernel can broadcast it into 64-bit lanes.
type laneEntry struct {
	PosMass
	Mask uint64
}

// laneState is the lane-transposed scratch of one batch: the lanes'
// positions as structure-of-arrays, and the per-lane results interact
// writes. Lanes 0-3 and 4-7 are the two 4-wide float64 halves. The field
// offsets are known to lanes_amd64.s.
type laneState struct {
	X, Y, Z          [FlatBatchWidth]float64
	AccX, AccY, AccZ [FlatBatchWidth]float64
	Phi              [FlatBatchWidth]float64
	Inter            [FlatBatchWidth]int64
}

// laneKernel is one implementation of the two leaf kernels.
//
// accept returns the subset of the active lanes whose opening test
// accepts nd: LSq < thetaSq * |pos-CofM|^2, the squared form of
// l/d < theta, with the distance summed as (dx²+dy²)+dz² like vec.Dist2.
//
// interact overwrites st's accumulators with, per lane, the sum over the
// list entries carrying that lane's bit, in list order, of
// nbody.InteractAccum's terms — the same operation shapes and order
// (((dx²+dy²)+dz²)+ε², 1/sqrt, ((m·inv)·inv)·inv, no fused multiply-add)
// and no cross-lane reduction — and the count of those entries.
type laneKernel struct {
	name     string
	accept   func(st *laneState, nd *FlatNode, thetaSq float64, active uint32) uint32
	interact func(list []laneEntry, st *laneState, epsSq float64)
}

var portableKernel = laneKernel{"portable", acceptLanesGo, interactLanesGo}

// kernel is the implementation ForceBatch runs, chosen once at init: the
// CPU (and the purego build tag) are the only selectors.
var kernel = func() *laneKernel {
	if k := simdKernel(); k != nil {
		return k
	}
	return &portableKernel
}()

// Kernel names the leaf-kernel implementation this process's flat force
// walks run: "avx2" or "portable".
func Kernel() string { return kernel.name }

func acceptLanesGo(st *laneState, nd *FlatNode, thetaSq float64, active uint32) uint32 {
	cx, cy, cz, lsq := nd.CofM.X, nd.CofM.Y, nd.CofM.Z, nd.LSq
	acc := uint32(0)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m) & (FlatBatchWidth - 1) // & 7: no bounds checks
		dx, dy, dz := st.X[lane]-cx, st.Y[lane]-cy, st.Z[lane]-cz
		if lsq < thetaSq*(dx*dx+dy*dy+dz*dz) {
			acc |= 1 << uint(lane)
		}
	}
	return acc
}

func interactLanesGo(list []laneEntry, st *laneState, epsSq float64) {
	var accX, accY, accZ, phi [FlatBatchWidth]float64
	var inter [FlatBatchWidth]int64
	for i := range list {
		q := &list[i]
		for m := uint32(q.Mask); m != 0; m &= m - 1 {
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
