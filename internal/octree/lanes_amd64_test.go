//go:build amd64 && !purego

package octree

import "testing"

// TestKernelSelectionByCPUID pins the init-time kernel choice on CPUID and
// XCR0 words. The AVX-512 kernel needs the CPU's F, DQ and VL bits *and*
// the OS's opmask and ZMM state in XCR0: a CPU that reports AVX-512 under
// an OS or hypervisor that does not save that state must get AVX2, not a
// SIGILL at the first opmask instruction.
func TestKernelSelectionByCPUID(t *testing.T) {
	const (
		ecxOS   = cpuOSXSAVE | cpuAVX
		ebx2    = cpuAVX2
		ebx512  = cpuAVX2 | cpuAVX512F | cpuAVX512DQ | cpuAVX512VL | 1<<30 // BW
		xcrYMM  = 0x07                                                     // x87, SSE, AVX
		xcrFull = 0x2e7                                                    // plus opmask, ZMM_Hi256, Hi16_ZMM, PKRU
	)
	for _, tc := range []struct {
		name                      string
		maxLeaf, ecx1, xcr0, ebx7 uint32
		want                      string // the kernel Kernel() would name
	}{
		{"AVX-512 host, OS saves ZMM state", 0x20, ecxOS, xcrFull, ebx512, "avx512"},
		{"AVX2 host", 0x10, ecxOS, xcrYMM, ebx2, "avx2"},
		{"CPUID reports AVX-512F but XCR0 lacks the opmask/ZMM bits", 0x20, ecxOS, xcrYMM, ebx512, "avx2"},
		{"XCR0 lacks Hi16_ZMM only", 0x20, ecxOS, xcrFull &^ 0x80, ebx512, "avx2"},
		{"XCR0 lacks the opmask only", 0x20, ecxOS, xcrFull &^ 0x20, ebx512, "avx2"},
		{"XCR0 lacks AVX state", 0x20, ecxOS, 0x03, ebx512, "portable"},
		{"AVX-512F without DQ", 0x20, ecxOS, xcrFull, ebx512 &^ cpuAVX512DQ, "avx2"},
		{"AVX-512F without VL", 0x20, ecxOS, xcrFull, ebx512 &^ cpuAVX512VL, "avx2"},
		{"DQ and VL without F", 0x20, ecxOS, xcrFull, ebx512 &^ cpuAVX512F, "avx2"},
		{"OSXSAVE clear: XCR0 unreadable", 0x20, cpuAVX, xcrFull, ebx512, "portable"},
		{"max leaf below 7", 6, ecxOS, xcrFull, ebx512, "portable"},
		{"no SIMD at all", 0x20, 0, 0, 0, "portable"},
	} {
		got := "portable"
		if ks := usableKernels(tc.maxLeaf, tc.ecx1, tc.xcr0, tc.ebx7); len(ks) > 0 {
			got = ks[len(ks)-1].name
		}
		if got != tc.want {
			t.Errorf("%s: selects %q, want %q", tc.name, got, tc.want)
		}
		if want512 := tc.want == "avx512"; avx512Usable(tc.maxLeaf, tc.ecx1, tc.xcr0, tc.ebx7) != want512 {
			t.Errorf("%s: avx512Usable = %v, want %v", tc.name, !want512, want512)
		}
	}
	if got := simdKernels(); len(got) > 0 && got[len(got)-1] != kernel {
		t.Errorf("Kernel() = %q, but the widest kernel this CPU allows is %q", Kernel(), got[len(got)-1].name)
	}
}
