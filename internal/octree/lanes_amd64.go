//go:build amd64 && !purego

package octree

var avx2Kernel = laneKernel{"avx2", acceptLanesAVX2, interactLanesAVX2}

// simdKernel returns the AVX2 leaf kernels when the CPU has AVX2 and the
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

//go:noescape
func acceptLanesAVX2(st *laneState, nd *FlatNode, thetaSq float64, active uint32) uint32

//go:noescape
func interactLanesAVX2(list []laneEntry, st *laneState, epsSq float64)
