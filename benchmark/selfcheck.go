package main

import (
	"fmt"
	"os"
)

// comparison is one row of the selfcheck table: a workload's metric in
// the two sets of runs.
type comparison struct {
	workload, metric string
	a, b             float64 // set medians
	rel              float64 // |a-b| relative to a
	bound            float64
	ok               bool
}

// compareSets compares two sets of suite runs of the same binary. Every
// end-to-end metric's set medians must agree within the metric's bound,
// and the operation counts — fixed work, so exact — must be identical
// in every run of both sets.
func compareSets(setA, setB [][]*document) (rows []comparison, countErrs []string) {
	for wi, w := range workloads {
		for _, d := range endToEnd {
			col := func(set [][]*document) []float64 {
				var xs []float64
				for _, run := range set {
					xs = append(xs, run[wi].Metrics[d.Name].Value)
				}
				return xs
			}
			a, b := median(col(setA)), median(col(setB))
			rel := relDiff(a, b)
			rows = append(rows, comparison{w.name, d.Name, a, b, rel, d.Bound, rel <= d.Bound})
		}
		// Runs that made the same number of rounds did the same work. (A
		// run the time budget stopped early made fewer, and is compared
		// with its like.)
		first := map[int]*document{}
		for _, set := range [][][]*document{setA, setB} {
			for _, run := range set {
				got := run[wi]
				want, seen := first[got.Rounds]
				if !seen {
					first[got.Rounds] = got
				} else if got.Attempted != want.Attempted || got.Failed != want.Failed {
					countErrs = append(countErrs, fmt.Sprintf("%s: attempted/failed %d/%d in one %d-round run, %d/%d in another",
						w.name, want.Attempted, want.Failed, got.Rounds, got.Attempted, got.Failed))
				}
			}
		}
	}
	return rows, countErrs
}

// selfCheck runs the untraced suite 2K times as two interleaved sets
// (A B A B ...) and reports whether they agree.
func selfCheck(k int, seed uint64, seconds int, outDir string) bool {
	var sets [2][][]*document
	for i := 0; i < 2*k; i++ {
		docs, err := suite(seed, seconds, false, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return false
		}
		sets[i%2] = append(sets[i%2], docs)
	}
	rows, countErrs := compareSets(sets[0], sets[1])
	ok := len(countErrs) == 0
	fmt.Printf("\n%-16s %-18s %14s %14s %8s %6s\n", "workload", "metric", "set A", "set B", "diff", "bound")
	for _, r := range rows {
		verdict := ""
		if !r.ok {
			verdict, ok = "  EXCEEDS BOUND", false
		}
		fmt.Printf("%-16s %-18s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", r.workload, r.metric, r.a, r.b, 100*r.rel, 100*r.bound, verdict)
	}
	for _, e := range countErrs {
		fmt.Println("COUNT MISMATCH:", e)
	}
	return ok
}
