//go:build !amd64 || purego

package octree

// simdKernel reports no SIMD leaf kernels: this build runs the portable
// ones.
func simdKernel() *laneKernel { return nil }
