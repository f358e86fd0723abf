// Package-level benchmarks: one per table and figure of the paper's
// evaluation (DESIGN.md §4 maps each to its experiment id). Each
// benchmark executes the corresponding experiment at a reduced "quick"
// workload and reports the key simulated-time metric; run
// `go run ./cmd/bhbench -exp all` for full-size reproductions.
package upcbh_test

import (
	"strings"
	"testing"

	"upcbh"
	"upcbh/internal/bench"
)

// runExperiment executes one registry entry per benchmark iteration. A
// fresh Runner per iteration keeps the memoization cache cold, so the
// benchmark measures real simulation work, not cache lookups.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	p := bench.Params{Scale: 0.25, MaxThreads: 32} // a reduced workload
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(bench.NewRunner(0), p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%s:\n%s", e.Title, rep.Text)
		}
	}
}

func BenchmarkTable2Baseline(b *testing.B)        { runExperiment(b, "table2") }
func BenchmarkTable3Scalars(b *testing.B)         { runExperiment(b, "table3") }
func BenchmarkTable4Redistribute(b *testing.B)    { runExperiment(b, "table4") }
func BenchmarkTable5CacheTree(b *testing.B)       { runExperiment(b, "table5") }
func BenchmarkTable6MergedBuild(b *testing.B)     { runExperiment(b, "table6") }
func BenchmarkTable7Async(b *testing.B)           { runExperiment(b, "table7") }
func BenchmarkTable8Subspace(b *testing.B)        { runExperiment(b, "table8") }
func BenchmarkTable9SubspacePthread(b *testing.B) { runExperiment(b, "table9") }

func BenchmarkFig5Speedups(b *testing.B)         { runExperiment(b, "fig5") }
func BenchmarkFig6PhaseBreakdown(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig7WeakMerged(b *testing.B)       { runExperiment(b, "fig7") }
func BenchmarkFig8MergeImbalance(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig10WeakNoVecReduce(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFig11WeakVecReduce(b *testing.B)   { runExperiment(b, "fig11") }
func BenchmarkFig12ThreadsPerNode(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13StrongSpeedup(b *testing.B)   { runExperiment(b, "fig13") }

func BenchmarkExtTransparentCache(b *testing.B) { runExperiment(b, "ext-cache") }
func BenchmarkExtMPIComparison(b *testing.B)    { runExperiment(b, "ext-mpi") }

// BenchmarkSingleStep measures one fully optimized simulation per level —
// the per-level ablation the paper's figure 5 summarizes. Reported
// metric: simulated seconds at 16 threads.
func BenchmarkSingleStep(b *testing.B) {
	for level := upcbh.Level(0); level < upcbh.NumLevels; level++ {
		level := level
		b.Run(strings.ToUpper(level.String()[:1])+level.String()[1:], func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				opts := upcbh.DefaultOptions(4096, 16, level)
				opts.Steps, opts.Warmup = 2, 1
				s, err := upcbh.New(opts)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Total()
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}
