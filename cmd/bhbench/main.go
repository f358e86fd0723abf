// Command bhbench regenerates the paper's tables and figures.
//
// Usage:
//
//	bhbench -list
//	bhbench -exp table5
//	bhbench -exp all -scale 0.5 -out results/ -json
//
// Experiments run through a shared memoized Runner: configurations that
// several tables/figures have in common simulate once, independent
// simulate-mode configurations run concurrently (-parallel workers), and
// native-mode configurations run exclusively so their wall-clock timings
// stay clean. With -json, the structured reports land in a
// BENCH_results.json trajectory file next to the text output.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"upcbh/internal/bench"
	"upcbh/internal/core"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		exp      = flag.String("exp", "", "experiment id (table2..table9, fig5..fig13) or 'all'")
		scale    = flag.Float64("scale", 1.0, "workload scale factor (1.0 = harness default sizes)")
		maxThr   = flag.Int("maxthreads", 0, "cap emulated thread counts (0 = experiment defaults)")
		outDir   = flag.String("out", "", "also write each experiment's output to <out>/<id>.txt (and BENCH_results.json there with -json)")
		jsonOut  = flag.Bool("json", false, "write structured reports to BENCH_results.json (in -out dir, else cwd)")
		parallel = flag.Int("parallel", 0, "simulate-mode worker pool size (0 = one per host core)")
		steps    = flag.Int("steps", 0, "override total time-steps (default: paper's 4)")
		warmup   = flag.Int("warmup", 0, "override warmup steps (default: paper's 2)")
		modeS    = flag.String("mode", "simulate", "execution backend: simulate | native (cost-model experiments — table9, fig12, ext-cache, ext-mpi — always run simulated; ext-native always runs both)")
		scenS    = flag.String("scenario", "", "workload scenario for every experiment: plummer|two-plummer|uniform|clustered|disk (default plummer; the imbalance experiment sweeps all of them)")
		verbose  = flag.Bool("v", false, "print per-experiment timing and per-run progress")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile covering all experiment execution to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (taken after all experiments) to this file")
	)
	flag.Parse()

	// Profiling brackets the experiment loop below so future perf PRs can
	// attach pprof evidence: bhbench -exp all -cpuprofile cpu.out, then
	// `go tool pprof` on the result.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list || *exp == "" {
		fmt.Println("Available experiments (bhbench -exp <id>):")
		for _, e := range bench.All() {
			fmt.Printf("  %-8s %s\n           paper: %s\n", e.ID, e.Title, e.Paper)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	p := bench.DefaultParams()
	p.Scale = *scale
	p.MaxThreads = *maxThr
	p.Steps, p.Warmup = *steps, *warmup
	mode, err := core.ParseExecMode(*modeS)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p.Mode = mode
	scenario, err := core.ParseScenario(*scenS)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Only pin the scenario when the user asked for one: an empty
	// Params.Scenario is the paper's default workload and stays out of
	// the report's params stamp.
	if *scenS != "" {
		p.Scenario = scenario.Name()
	}

	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.All()
	} else {
		e, err := bench.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}

	runner := bench.NewRunner(*parallel)
	if *verbose {
		runner.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var reports []*bench.Report
	for _, e := range exps {
		rep, err := e.Run(runner, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		reports = append(reports, rep)
		fmt.Printf("=== %s ===\npaper: %s\n\n%s\n", rep.ID, rep.Paper, rep.Text)
		if *verbose {
			fmt.Printf("(%s ran in %v wall time)\n\n", rep.ID, time.Duration(rep.Elapsed*float64(time.Second)).Round(time.Millisecond))
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, rep.ID+".txt")
			if err := os.WriteFile(path, []byte(rep.Text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	stats := runner.Stats()
	fmt.Fprintf(os.Stderr, "runner: %d simulations (%d native), %d cache hits — %.0f%% of requests deduplicated, %d workers\n",
		stats.Runs, stats.NativeRuns, stats.Hits, 100*stats.DedupFraction(), runner.Workers())

	if *jsonOut {
		traj := &bench.Trajectory{
			Generated: time.Now().UTC().Format(time.RFC3339),
			GoVersion: runtime.Version(),
			Params:    p,
			Env:       bench.CaptureEnv(),
			Runner:    stats,
			Reports:   reports,
		}
		raw, err := traj.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dir := *outDir
		if dir == "" {
			dir = "."
		}
		path := filepath.Join(dir, "BENCH_results.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d reports, %d configs)\n", path, len(reports), totalConfigs(reports))
	}
}

func totalConfigs(reports []*bench.Report) int {
	n := 0
	for _, r := range reports {
		n += len(r.Configs)
	}
	return n
}
