package core

import (
	"fmt"
	"testing"
)

// BenchmarkNativeTreePhase reports what the tree plumbing around the
// force kernel costs a native step at the benchmark's size: the parallel
// flat build (PhaseTree) and the flat partition (PhasePartition), each
// the maximum over threads, averaged over b.N whole steps. The ns/op
// column is the whole step, force included; the two custom columns are
// the subject. (Host wall-clock comparisons are benchmark/'s job —
// DESIGN.md §10; this is logged by CI next to the octree kernel
// benchmarks so the code cannot rot.)
func BenchmarkNativeTreePhase(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("T=%d", threads), func(b *testing.B) {
			const warm = 4
			opts := DefaultOptions(16384, threads, LevelMergedBuild)
			opts.ExecMode = ModeNative
			opts.Steps, opts.Warmup = warm+b.N, warm
			sim, err := New(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Release()
			if err := sim.Step(warm); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := sim.Step(b.N); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			meta, err := sim.SnapshotMeta()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(meta.Phases[PhaseTree]*1e3/float64(b.N), "tree-ms/step")
			b.ReportMetric(meta.Phases[PhasePartition]*1e3/float64(b.N), "partition-ms/step")
		})
	}
}

// BenchmarkGatherBodies is the body copy-out every Snapshot with bodies
// and every Finish pays: each owned body placed at its ID's slot, after
// two steps of redistribution have shuffled the ownership lists.
func BenchmarkGatherBodies(b *testing.B) {
	for _, n := range []int{2048, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			opts := DefaultOptions(n, 2, LevelMergedBuild)
			opts.ExecMode = ModeNative
			sim, err := New(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Release()
			if err := sim.Step(2); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sim.gatherBodies(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateStep is one Step(1) of a long-lived simulate-mode
// session in the configuration of the benchmark's simulate-levels
// workload (n = 2048, 16 emulated threads, seed 1, two warm-up steps),
// per level it sweeps. Host time of the reproduction backend itself:
// charged accesses, the pointer walks, the cooperative scheduler.
func BenchmarkSimulateStep(b *testing.B) {
	for _, level := range []Level{LevelBaseline, LevelCacheTree, LevelAsync, LevelSubspace} {
		b.Run(level.String(), func(b *testing.B) {
			const warm = 2
			opts := DefaultOptions(2048, 16, level)
			opts.Seed = 1
			opts.Steps, opts.Warmup = warm+b.N, warm
			sim, err := New(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Release()
			if err := sim.Step(warm); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Step(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
