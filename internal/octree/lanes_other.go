//go:build !amd64 || purego

package octree

// simdKernel reports no SIMD force kernel: this build runs the portable
// one.
func simdKernel() *laneKernel { return nil }
