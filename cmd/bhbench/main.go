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
// configurations run concurrently (-parallel workers), and ext-native's
// native-mode halves run exclusively so their wall-clock timings stay
// clean. With -json, the structured reports land in a
// BENCH_results.json trajectory file next to the text output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"upcbh/internal/bench"
	"upcbh/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the exit status instead of
// calling os.Exit, so the deferred profile writers below run on every
// way out — the profile of a run that failed is the one worth having.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bhbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list available experiments")
		exp      = fs.String("exp", "", "experiment id (table2..table9, fig5..fig13) or 'all'")
		scale    = fs.Float64("scale", 1.0, "workload scale factor (1.0 = harness default sizes)")
		maxThr   = fs.Int("maxthreads", 0, "cap emulated thread counts (0 = experiment defaults)")
		outDir   = fs.String("out", "", "also write each experiment's output to <out>/<id>.txt (and BENCH_results.json there with -json)")
		jsonOut  = fs.Bool("json", false, "write structured reports to BENCH_results.json (in -out dir, else cwd)")
		parallel = fs.Int("parallel", 0, "simulate-mode worker pool size (0 = one per host core)")
		steps    = fs.Int("steps", 0, "override total time-steps (default: paper's 4)")
		warmup   = fs.Int("warmup", 0, "override warmup steps (default: paper's 2)")
		scenS    = fs.String("scenario", "", "workload scenario for every experiment: plummer|two-plummer|uniform|clustered|disk (default plummer; the imbalance experiment sweeps all of them)")
		verbose  = fs.Bool("v", false, "print per-experiment timing and per-run progress")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile covering all experiment execution to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile (taken after all experiments) to this file")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, err)
		return code
	}

	// Profiling brackets the experiment loop below so future perf PRs can
	// attach pprof evidence: bhbench -exp all -cpuprofile cpu.out, then
	// `go tool pprof` on the result.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "Available experiments (bhbench -exp <id>):")
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "  %-8s %s\n           paper: %s\n", e.ID, e.Title, e.Paper)
		}
		if !*list {
			return 2
		}
		return 0
	}

	p := bench.DefaultParams()
	p.Scale = *scale
	p.MaxThreads = *maxThr
	p.Steps, p.Warmup = *steps, *warmup
	scenario, err := core.ParseScenario(*scenS)
	if err != nil {
		return fail(2, err)
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
			return fail(2, err)
		}
		exps = []bench.Experiment{e}
	}

	runner := bench.NewRunner(*parallel)
	if *verbose {
		runner.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, "# "+format+"\n", args...)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(1, err)
		}
	}

	var reports []*bench.Report
	for _, e := range exps {
		rep, err := e.Run(runner, p)
		if err != nil {
			return fail(1, err)
		}
		reports = append(reports, rep)
		fmt.Fprintf(stdout, "=== %s ===\npaper: %s\n\n%s\n", rep.ID, rep.Paper, rep.Text)
		if *verbose {
			fmt.Fprintf(stdout, "(%s ran in %v wall time)\n\n", rep.ID, time.Duration(rep.Elapsed*float64(time.Second)).Round(time.Millisecond))
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, rep.ID+".txt")
			if err := os.WriteFile(path, []byte(rep.Text), 0o644); err != nil {
				return fail(1, err)
			}
		}
	}

	stats := runner.Stats()
	fmt.Fprintf(stderr, "runner: %d simulations (%d native), %d cache hits — %.0f%% of requests deduplicated, %d workers\n",
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
			return fail(1, err)
		}
		dir := *outDir
		if dir == "" {
			dir = "."
		}
		path := filepath.Join(dir, "BENCH_results.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "wrote %s (%d reports, %d configs)\n", path, len(reports), totalConfigs(reports))
	}
	return 0
}

func totalConfigs(reports []*bench.Report) int {
	n := 0
	for _, r := range reports {
		n += len(r.Configs)
	}
	return n
}
