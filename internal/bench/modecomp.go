package bench

import (
	"fmt"
	"strings"

	"upcbh/internal/core"
)

// runModeComparison runs the same configuration under both execution
// backends and prints simulated vs measured wall-clock per-phase times
// side by side: the Simulate column is the paper's modelled Power5
// cluster, the Native column is this machine computing the same physics
// at hardware speed (at this level on the native engine's one flat-tree
// path, DESIGN.md §8).
func runModeComparison(x *Exec) (string, error) {
	p := x.P
	n := p.bodies(strongBodies)
	threads := p.threads([]int{1, 2, 4, 8})
	level := core.LevelSubspace

	var b strings.Builder
	fmt.Fprintf(&b, "Extension: Simulate (modelled Power5 cluster) vs Native (this host), %d bodies, level %s\n\n", n, level)

	for _, th := range threads {
		// The pairs run sequentially on purpose: the Runner serializes
		// each native run exclusively anyway, so batching would only
		// reorder the simulate halves.
		simRes, err := x.runOne(options(p, n, th, level, nil))
		if err != nil {
			return "", fmt.Errorf("simulate at %d threads: %w", th, err)
		}
		natOpts := options(p, n, th, level, nil)
		natOpts.ExecMode = core.ModeNative
		natRes, err := x.runOne(natOpts)
		if err != nil {
			return "", fmt.Errorf("native at %d threads: %w", th, err)
		}

		fmt.Fprintf(&b, "%d thread(s):\n", th)
		fmt.Fprintf(&b, "  %-16s %12s %12s %10s\n", "phase", "sim t(s)", "wall t(s)", "sim/wall")
		for _, ph := range phaseRows(level) {
			sim, wall := simRes.Phases[ph], natRes.Phases[ph]
			ratio := "-"
			if wall > 0 {
				ratio = fmt.Sprintf("%.1fx", sim/wall)
			}
			fmt.Fprintf(&b, "  %-16s %12.6f %12.6f %10s\n", ph, sim, wall, ratio)
		}
		simT, wallT := simRes.Total(), natRes.Total()
		ratio := "-"
		if wallT > 0 {
			ratio = fmt.Sprintf("%.1fx", simT/wallT)
		}
		fmt.Fprintf(&b, "  %-16s %12.6f %12.6f %10s\n\n", "Total", simT, wallT, ratio)
	}
	b.WriteString("(physics is identical between the columns; only the timing policy differs.\n" +
		" The Native column is the same at every level from cache to subspace: there it builds one\n" +
		" flat octree directly and in parallel — no merge, exchange or hook phases to time — so its\n" +
		" Tree-building row is that build and its Redistribution row the indexed gather; DESIGN.md §8)\n")
	return b.String(), nil
}
