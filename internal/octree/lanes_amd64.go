//go:build amd64 && !purego

package octree

import "unsafe"

var (
	avx2Kernel   = laneKernel{"avx2", fused(forceLanesAVX2)}
	avx512Kernel = laneKernel{"avx512", fused(forceLanesAVX512)}
)

// simdKernels returns the fused assembly kernels this CPU can run.
func simdKernels() []*laneKernel { return usableKernels(cpuFeatures()) }

// usableKernels returns the fused kernels that CPUID and XCR0 values allow,
// slowest first: AVX2, then AVX-512.
func usableKernels(maxLeaf, ecx1, xcr0, ebx7 uint32) []*laneKernel {
	var ks []*laneKernel
	if avx2Usable(maxLeaf, ecx1, xcr0, ebx7) {
		ks = append(ks, &avx2Kernel)
	}
	if avx512Usable(maxLeaf, ecx1, xcr0, ebx7) {
		ks = append(ks, &avx512Kernel)
	}
	return ks
}

// The CPUID feature bits and XCR0 state-component bits the kernels need.
const (
	cpuOSXSAVE  = 1 << 27 // CPUID.1:ECX: the OS enabled XSAVE, so XGETBV works
	cpuAVX      = 1 << 28 // CPUID.1:ECX
	cpuAVX2     = 1 << 5  // CPUID.7.0:EBX
	cpuAVX512F  = 1 << 16 // CPUID.7.0:EBX
	cpuAVX512DQ = 1 << 17 // CPUID.7.0:EBX: KMOVB, KORTESTB
	cpuAVX512VL = 1 << 31 // CPUID.7.0:EBX: the EVEX forms on YMM
	xcr0YMM     = 0x06    // SSE and AVX state
	xcr0ZMM     = 0xe6    // plus the opmasks, ZMM0-15's upper halves and ZMM16-31
)

// avx2Usable reports whether the AVX2 kernel can run: the CPU has AVX2 and
// the OS saves the YMM state across context switches.
func avx2Usable(maxLeaf, ecx1, xcr0, ebx7 uint32) bool {
	return maxLeaf >= 7 && ecx1&cpuOSXSAVE != 0 && ecx1&cpuAVX != 0 &&
		xcr0&xcr0YMM == xcr0YMM && ebx7&cpuAVX2 != 0
}

// avx512Usable reports whether the AVX-512 kernel can run: the CPU has
// AVX-512 F, DQ and VL and the OS saves the opmask and ZMM state. A
// hypervisor may pass the CPUID bits through without enabling that state,
// and the kernel's first opmask instruction would then fault.
func avx512Usable(maxLeaf, ecx1, xcr0, ebx7 uint32) bool {
	const need = cpuAVX512F | cpuAVX512DQ | cpuAVX512VL
	return maxLeaf >= 7 && ecx1&cpuOSXSAVE != 0 &&
		xcr0&xcr0ZMM == xcr0ZMM && ebx7&need == need
}

// cpuFeatures reads the CPUID and XCR0 words the predicates above test.
// Words a leaf or OSXSAVE does not make valid read 0.
func cpuFeatures() (maxLeaf, ecx1, xcr0, ebx7 uint32) {
	maxLeaf, _, _, _ = cpuid(0, 0)
	if maxLeaf < 7 {
		return maxLeaf, 0, 0, 0
	}
	_, _, ecx1, _ = cpuid(1, 0)
	if ecx1&cpuOSXSAVE != 0 {
		xcr0 = xgetbv0()
	}
	_, ebx7, _, _ = cpuid(7, 0)
	return maxLeaf, ecx1, xcr0, ebx7
}

// Implemented in lanes_amd64.s.

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0. Only valid when CPUID reports
// OSXSAVE.
func xgetbv0() uint32

// forceLanesAVX2 and forceLanesAVX512 are the fused batch walk: see
// lanes_amd64.s.
//
//go:noescape
func forceLanesAVX2(st *laneState, frames []kidRange, nodes *FlatNode, kids *int32, pm *PosMass, full uint32) bool

//go:noescape
func forceLanesAVX512(st *laneState, frames []kidRange, nodes *FlatNode, kids *int32, pm *PosMass, full uint32) bool

// fused makes an assembly walk a laneKernel's force: it fills the scalar
// operands the assembly reads from memory and runs it.
func fused(walk func(st *laneState, frames []kidRange, nodes *FlatNode, kids *int32, pm *PosMass, full uint32) bool) func(*FlatWalker, *FlatTree, int, float64, float64) {
	return func(w *FlatWalker, ft *FlatTree, n int, theta, eps float64) {
		st := &w.lanes
		for i := range st.One {
			st.ThetaSq[i], st.EpsSq[i], st.One[i] = theta*theta, eps*eps, 1
		}
		full := uint32(1)<<uint(n) - 1
		if !walk(st, w.frames[:], unsafe.SliceData(ft.Nodes), unsafe.SliceData(ft.Kids), unsafe.SliceData(ft.PM), full) {
			panic("octree: flat tree deeper than flatMaxDepth")
		}
	}
}
