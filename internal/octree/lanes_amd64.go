//go:build amd64 && !purego

package octree

import "unsafe"

var avx2Kernel = laneKernel{"avx2", (*FlatWalker).forceAVX2}

// simdKernel returns the fused AVX2 kernel when the CPU has AVX2 and the
// OS saves the YMM state across context switches, nil otherwise.
func simdKernel() *laneKernel {
	if !hasAVX2() {
		return nil
	}
	return &avx2Kernel
}

func hasAVX2() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		avx      = 1 << 28 // CPUID.1:ECX
		avx2     = 1 << 5  // CPUID.7.0:EBX
		xmmYmmOS = 0b110   // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&xmmYmmOS != xmmYmmOS {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// Implemented in lanes_amd64.s.

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0. Only valid when CPUID reports
// OSXSAVE.
func xgetbv0() uint32

// forceLanesAVX2 is the fused batch walk: see lanes_amd64.s.
//
//go:noescape
func forceLanesAVX2(st *laneState, frames []kidRange, nodes *FlatNode, kids *int32, pm *PosMass, full uint32) bool

// forceAVX2 fills the scalar operands the assembly reads from memory and
// runs it.
func (w *FlatWalker) forceAVX2(ft *FlatTree, n int, theta, eps float64) {
	st := &w.lanes
	for i := range st.One {
		st.ThetaSq[i], st.EpsSq[i], st.One[i] = theta*theta, eps*eps, 1
	}
	full := uint32(1)<<uint(n) - 1
	if !forceLanesAVX2(st, w.frames[:], unsafe.SliceData(ft.Nodes), unsafe.SliceData(ft.Kids), unsafe.SliceData(ft.PM), full) {
		panic("octree: flat tree deeper than flatMaxDepth")
	}
}
