package octree

import (
	"math/bits"
	"testing"

	"upcbh/internal/nbody"
)

func BenchmarkInsert(b *testing.B) {
	bodies := nbody.Plummer(16384, 1)
	lo, hi := nbody.BoundingBox(bodies)
	center, half := nbody.RootCell(lo, hi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := New(center, half)
		for j := range bodies {
			t.Insert(&bodies[j])
		}
	}
	b.ReportMetric(float64(len(bodies)), "bodies/op")
}

func BenchmarkComputeCofM(b *testing.B) {
	bodies := nbody.Plummer(16384, 1)
	t := Build(bodies)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.ComputeCofM()
	}
}

func benchmarkForceOnPointer(b *testing.B, n int) {
	bodies := nbody.Plummer(n, 1)
	t := Build(bodies)
	b.ResetTimer()
	var inter int
	for i := 0; i < b.N; i++ {
		_, _, k := t.ForceOn(&bodies[i%len(bodies)], 1.0, 0.05)
		inter = k
	}
	b.ReportMetric(float64(inter), "interactions/body")
}

func BenchmarkForceOn(b *testing.B)    { benchmarkForceOnPointer(b, 16384) }
func BenchmarkForceOn32k(b *testing.B) { benchmarkForceOnPointer(b, 32768) }

// BenchmarkForceOnFlat is the flat counterpart of BenchmarkForceOn: same
// Plummer workload, same theta/eps, walking the arena tree one body per
// call. Run next to BenchmarkForceOn it gives the pointer/flat ratio
// (the CI benchmark step logs both); the flat layout was accepted at
// >= 1.5x for the batched kernel the hot path runs.
func benchmarkForceOnFlat(b *testing.B, n int) {
	bodies := nbody.Plummer(n, 1)
	ft := BuildFlat(bodies)
	b.ResetTimer()
	var inter int
	for i := 0; i < b.N; i++ {
		_, _, k := ft.ForceOn(int32(i%ft.Bodies.Len()), 1.0, 0.05)
		inter = k
	}
	b.ReportMetric(float64(inter), "interactions/body")
}

func BenchmarkForceOnFlat(b *testing.B)    { benchmarkForceOnFlat(b, 16384) }
func BenchmarkForceOnFlat32k(b *testing.B) { benchmarkForceOnFlat(b, 32768) }

// BenchmarkForceOnFlatBatch is the batched kernel the flat hot path
// actually runs: FlatBatchWidth Morton-adjacent bodies per traversal.
// Divide ns/op by the reported bodies/op for the per-body cost.
func benchmarkForceOnFlatBatch(b *testing.B, n int) {
	bodies := nbody.Plummer(n, 1)
	ft := BuildFlat(bodies)
	nb := ft.Bodies.Len()
	var fb FlatBatch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (i * FlatBatchWidth) % (nb - FlatBatchWidth + 1)
		fb.N = FlatBatchWidth
		for lane := 0; lane < FlatBatchWidth; lane++ {
			fb.Pos[lane] = ft.Bodies.Pos[j+lane]
			fb.Skip[lane] = int32(j + lane)
		}
		ft.walker.ForceBatch(ft, &fb, 1.0, 0.05)
	}
	b.ReportMetric(FlatBatchWidth, "bodies/op")
}

func BenchmarkForceOnFlatBatch(b *testing.B)    { benchmarkForceOnFlatBatch(b, 16384) }
func BenchmarkForceOnFlatBatch32k(b *testing.B) { benchmarkForceOnFlatBatch(b, 32768) }

// BenchmarkForceBatchKernels times one full force sweep (n = 16384,
// theta = 1, Morton-order batches) per force-kernel implementation and
// reports ns/interaction, so each SIMD kernel the host can run (AVX2,
// AVX-512) and the portable fallback are logged numbers side by side.
func BenchmarkForceBatchKernels(b *testing.B) {
	bodies := nbody.Plummer(16384, 1)
	ft := BuildFlat(bodies)
	for _, k := range testKernels() {
		b.Run(k.name, func(b *testing.B) {
			inter := 0
			for i := 0; i < b.N; i++ {
				inter = 0
				for _, r := range solveWith(ft, k, 1.0, 0.05) {
					inter += r.inter
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(inter), "ns/interaction")
		})
	}
}

// BenchmarkAcceptChain is why the AVX2 kernel is one fused pass (DESIGN.md
// §8.4): the same opening tests over the same cells cost several times
// more when each test's cell depends on the previous test's answer — as
// in a tree walk, where the answer decides between descending and moving
// on — than when the cells are known in advance. The walk is bound by
// that latency chain, not by arithmetic throughput, which leaves the
// core free to run interactions underneath it. Portable accept, so the
// pair runs on every GOARCH, with one active lane: one short
// subtract-square-sum-compare chain per test, the shape of the SIMD
// test of all eight.
func BenchmarkAcceptChain(b *testing.B) {
	ft := BuildFlat(nbody.Plummer(16384, 1))
	var st laneState
	for lane := 0; lane < FlatBatchWidth; lane++ {
		p := ft.Bodies.Pos[lane]
		st.X[lane], st.Y[lane], st.Z[lane] = p.X, p.Y, p.Z
	}
	nodes := ft.Nodes[:1<<(bits.Len(uint(len(ft.Nodes)))-1)] // a power of two: the index wraps with a mask
	wrap := len(nodes) - 1
	b.Run("independent", func(b *testing.B) {
		sink := uint32(0)
		for i := 0; i < b.N; i++ {
			sink += acceptLanesGo(&st, &nodes[i*7&wrap], 1.0, 0x01)
		}
		acceptSink = sink
	})
	b.Run("dependent", func(b *testing.B) {
		sink, at := uint32(0), 0
		for i := 0; i < b.N; i++ {
			acc := acceptLanesGo(&st, &nodes[at], 1.0, 0x01)
			at = (at + 7 + int(acc&1)) & wrap
			sink += acc
		}
		acceptSink = sink
	})
}

var acceptSink uint32

// BenchmarkSolve/BenchmarkSolveFlat time a full build+force sweep in each
// layout (the steady-state per-timestep work of the native hot path).
func BenchmarkSolve(b *testing.B) {
	bodies := nbody.Plummer(16384, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(bodies, 1.0, 0.05)
	}
}

func BenchmarkSolveFlat(b *testing.B) {
	bodies := nbody.Plummer(16384, 1)
	ft := &FlatTree{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Rebuild(bodies)
		ft.SolveInto(bodies, 1.0, 0.05)
	}
}

func BenchmarkBuildFlat(b *testing.B) {
	bodies := nbody.Plummer(16384, 1)
	ft := &FlatTree{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Rebuild(bodies)
	}
	b.ReportMetric(float64(len(bodies)), "bodies/op")
}

func BenchmarkMorton(b *testing.B) {
	bodies := nbody.Plummer(4096, 1)
	lo, hi := nbody.BoundingBox(bodies)
	center, half := nbody.RootCell(lo, hi)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Morton(bodies[i%len(bodies)].Pos, center, half)
	}
	_ = sink
}
