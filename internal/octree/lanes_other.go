//go:build !amd64 || purego

package octree

// simdKernels reports no SIMD force kernel: this build runs the portable
// one.
func simdKernels() []*laneKernel { return nil }
