package bench

import (
	"fmt"

	"upcbh/internal/core"
	"upcbh/internal/mpibh"
)

// extensionExperiments go beyond the paper's evaluation: ablations and
// follow-ups the paper proposes in §7-§9.
func extensionExperiments() []Experiment {
	return []Experiment{
		{
			ID:    "ext-cache",
			Title: "Extension: transparent runtime cache vs manual caching (§8)",
			Paper: "the paper suspects MuPC/Berkeley-style transparent caching 'is unlikely to help the performance of more complex UPC codes'; this ablation quantifies the gap to §5.3 manual caching",
			run:   runExtCache,
		},
		{
			ID:    "ext-mpi",
			Title: "Extension: MPI locally-essential-tree code vs fully optimized UPC (§9)",
			Paper: "§9 future work: 'We suspect that, with all these changes, the UPC code is as efficient as a similar MPI code' — the comparison the authors planned",
			run:   runExtMPI,
		},
		imbalanceExperiment(),
	}
}

func runExtCache(x *Exec) (string, error) {
	p := x.P
	n := p.bodies(strongBodies)
	threads := p.threads([]int{1, 2, 4, 8, 16, 32, 64})
	configs := []struct {
		label string
		mut   func(*core.Options)
	}{
		{"no caching (L2)", func(o *core.Options) { o.Level = core.LevelRedistribute }},
		{"transparent runtime cache", func(o *core.Options) {
			o.Level = core.LevelRedistribute
			o.TransparentCache = true
		}},
		{"manual caching (L3, §5.3)", func(o *core.Options) { o.Level = core.LevelCacheTree }},
	}
	opts := make([]core.Options, 0, len(configs)*len(threads))
	for _, cfg := range configs {
		for _, th := range threads {
			o := options(p, n, th, core.LevelRedistribute, nil)
			cfg.mut(&o)
			opts = append(opts, o)
		}
	}
	results, err := x.runAll(opts)
	if err != nil {
		return "", err
	}
	var ss []series
	for ci, cfg := range configs {
		s := series{label: cfg.label}
		for _, res := range results[ci*len(threads) : (ci+1)*len(threads)] {
			s.vals = append(s.vals, res.Phases[core.PhaseForce])
		}
		ss = append(ss, s)
	}
	out := formatSeries(
		fmt.Sprintf("Extension: force-computation time, %d bodies — transparent vs manual caching", n),
		"t(s)", threads, ss)
	return out, nil
}

func runExtMPI(x *Exec) (string, error) {
	p := x.P
	n := p.bodies(strongBodies)
	threads := p.threads([]int{1, 2, 4, 8, 16, 32, 64})
	steps, warmup := p.steps()
	opts := make([]core.Options, len(threads))
	for i, th := range threads {
		opts[i] = options(p, n, th, core.LevelSubspace, nil)
	}
	results, err := x.runAll(opts)
	if err != nil {
		return "", err
	}
	upcS := series{label: "UPC, all optimizations (L6)"}
	mpiS := series{label: "MPI, locally essential trees"}
	for i, th := range threads {
		upcS.vals = append(upcS.vals, results[i].Total())

		// The MPI side runs its own emulated runtime outside the Runner's
		// core.Options cache; it is cheap relative to the UPC sweep.
		mres, err := mpibh.Run(mpibh.Options{
			Bodies: n, Ranks: th, Steps: steps, Warmup: warmup,
			Theta: 1.0, Eps: 0.05, Dt: 0.025, Seed: 123,
		})
		if err != nil {
			return "", err
		}
		mpiS.vals = append(mpiS.vals, mres.Total)
	}
	out := formatSeries(
		fmt.Sprintf("Extension: total simulated time, %d bodies — UPC vs MPI", n),
		"t(s)", threads, []series{upcS, mpiS})
	return out, nil
}
