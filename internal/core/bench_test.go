package core

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"unsafe"
)

// BenchmarkNativeTreePhase reports what the tree plumbing around the
// force kernel costs a native step: the parallel flat build (PhaseTree)
// and the flat partition (PhasePartition), each the maximum over
// threads, averaged over b.N whole steps, and the build per body
// (tree-ns/body), the column to compare across shapes. The shapes are
// the ones the benchmark's native workloads step: 64 bodies on one
// thread (serve-churn), 2048 on one (stream-durable) and 16 384 on one,
// two and four (native-scale). The ns/op column is the whole step, force
// included; the custom columns are the subject. (Host wall-clock
// comparisons are benchmark/'s job — DESIGN.md §10; this is logged by CI
// next to the octree kernel benchmarks so the code cannot rot.)
func BenchmarkNativeTreePhase(b *testing.B) {
	for _, c := range []struct{ n, threads int }{
		{64, 1}, {2048, 1}, {16384, 1}, {16384, 2}, {16384, 4},
	} {
		b.Run(fmt.Sprintf("n=%d/T=%d", c.n, c.threads), func(b *testing.B) {
			const warm = 4
			opts := DefaultOptions(c.n, c.threads, LevelMergedBuild)
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
			tree := meta.Phases[PhaseTree] / float64(b.N)
			b.ReportMetric(tree*1e3, "tree-ms/step")
			b.ReportMetric(tree*1e9/float64(c.n), "tree-ns/body")
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

// BenchmarkSimulateFootprint reads what a simulate session holds per
// body at the simulate-levels shape (n = 2048, 16 threads) and at n =
// 16 384, per level BenchmarkSimulateStep sweeps, after two warm-up steps
// and b.N more: localtree-B/body is the §5.3 local trees' retained
// storage, cap(lnodes) nodes summed over the force plane's walkers, over
// n; ledger-B/body the threads' recorded force walks, their slices'
// capacity, over n; heap-B/body how far the session raised the live heap
// after a collection, over n; hwm-B/body how far it raised the process's
// peak RSS (VmHWM), over n. The peak only rises, so a configuration
// smaller than one run before it reads ≈ 0: run one sub-benchmark per
// process for that column. ns/op is one Step(1).
func BenchmarkSimulateFootprint(b *testing.B) {
	for _, n := range []int{2048, 16384} {
		for _, level := range []Level{LevelBaseline, LevelCacheTree, LevelAsync, LevelSubspace} {
			b.Run(fmt.Sprintf("n=%d/%s", n, level), func(b *testing.B) {
				hwm0, heap0 := vmHWM(), liveHeap()
				opts := DefaultOptions(n, 16, level)
				opts.Seed = 1
				opts.Steps, opts.Warmup = 2+b.N, 2
				sim, err := New(opts)
				if err != nil {
					b.Fatal(err)
				}
				defer sim.Release()
				if err := sim.Step(2); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				if err := sim.Step(b.N); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				eng := sim.eng.(*simEngine)
				nodes, ledgers := 0, 0
				for _, pt := range eng.plane.walkers {
					nodes += cap(pt.lnodes)
				}
				for _, st := range eng.ts {
					ledgers += sliceBytes(&st.ledger)
				}
				b.ReportMetric(float64(nodes)*float64(unsafe.Sizeof(lnode{}))/float64(n), "localtree-B/body")
				b.ReportMetric(float64(ledgers)/float64(n), "ledger-B/body")
				b.ReportMetric(float64(liveHeap()-heap0)/float64(n), "heap-B/body")
				if hwm0 > 0 {
					b.ReportMetric(float64(vmHWM()-hwm0)/float64(n), "hwm-B/body")
				}
			})
		}
	}
}

// sliceBytes is the capacity, in bytes, of the slices among *v's fields.
func sliceBytes(v any) int {
	s := reflect.ValueOf(v).Elem()
	n := 0
	for i := range s.NumField() {
		if f := s.Field(i); f.Kind() == reflect.Slice {
			n += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	return n
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// vmHWM returns the process's peak resident set in bytes, or 0 where
// /proc/self/status has no VmHWM line.
func vmHWM() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(status, []byte("VmHWM:"))
	f := bytes.Fields(rest) // "<n> kB ..."
	if !ok || len(f) == 0 {
		return 0
	}
	kb, err := strconv.ParseInt(string(f[0]), 10, 64)
	if err != nil {
		return 0
	}
	return kb << 10
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
//     pooled request lists (enqueueChildren), the local tree, the
//     working bodies' frontiers, and at subspace the per-subspace
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
