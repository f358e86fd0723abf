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

// TestSimulateSteadyStateAllocs is BenchmarkSimulateStep's allocation
// gate: in the same configuration, after a warm-up, one Step(1) of a
// long-lived simulate session allocates at most the level's bound:
// twice the count measured when the gate was set, 0 / 1 / 3 / 26 per
// step at baseline / cache / async / subspace (the counts are
// deterministic). What remains:
//   - upc.Broadcast boxes the root's value into the rendezvous deposit,
//     once per broadcast: the tree root at cache, the top-tree base at
//     subspace;
//   - retained scratch still growing toward its high-water mark, since
//     the bodies (and so the tree) change every step: the async force's
//     pooled request lists and gather buffers (enqueueChildren, sized),
//     the working bodies' frontiers, and at subspace the per-subspace
//     body lists (bodiesOf), the leaf rows and slot map, and the
//     all-to-all send rows.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steps four 16-thread sessions past their warm-up")
	}
	const warm, runs = 24, 8
	for _, c := range []struct {
		level Level
		bound float64
	}{
		{LevelBaseline, 0},
		{LevelCacheTree, 2},
		{LevelAsync, 6},
		{LevelSubspace, 52},
	} {
		opts := DefaultOptions(2048, 16, c.level)
		opts.Seed = 1
		opts.Steps, opts.Warmup = warm+1+runs, 2
		sim, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Step(warm); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(runs, func() {
			if err := sim.Step(1); err != nil {
				t.Fatal(err)
			}
		})
		sim.Release()
		t.Logf("%s: %.0f allocations per step (bound %.0f)", c.level, got, c.bound)
		if got > c.bound {
			t.Errorf("%s: a steady-state Step(1) made %.0f allocations, want <= %.0f", c.level, got, c.bound)
		}
	}
}
