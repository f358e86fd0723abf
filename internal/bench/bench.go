// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation at configurable (scaled-down)
// workload sizes, formatting results in the paper's layout so shapes can
// be compared side by side. See DESIGN.md §4 for the experiment index.
//
// Experiments execute through a shared Runner that memoizes
// configurations by core.Options.Key (configs shared across
// tables/figures simulate once) and runs independent simulate-mode
// configs concurrently; each Experiment.Run returns a structured Report
// that serializes to JSON. See DESIGN.md §5.
package bench

import (
	"fmt"
	"strings"
	"time"

	"upcbh/internal/core"
	"upcbh/internal/hostenv"
	"upcbh/internal/machine"
)

// Params controls workload scaling for an experiment run.
type Params struct {
	// Scale multiplies body counts; 1.0 is the harness default workload
	// (a laptop-sized stand-in for the paper's 2M bodies), smaller values
	// suit unit benches.
	Scale float64 `json:"scale"`
	// MaxThreads caps the emulated thread counts (0 = experiment default).
	MaxThreads int `json:"max_threads,omitempty"`
	// Steps/Warmup override the paper's 4/2 when positive.
	Steps  int `json:"steps,omitempty"`
	Warmup int `json:"warmup,omitempty"`
	// Scenario selects the workload scenario every experiment runs on
	// ("" = the paper's Plummer sphere). The imbalance experiment
	// sweeps all scenarios itself and ignores this.
	Scenario string `json:"scenario,omitempty"`
}

// DefaultParams is the full harness configuration.
func DefaultParams() Params { return Params{Scale: 1.0} }

// Experiment reproduces one table or figure.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the paper's version shows, for side-by-side
	// comparison in EXPERIMENTS.md.
	Paper string
	// run renders the experiment's paper-layout text, executing every
	// configuration through the Exec so it lands in the Report.
	run func(x *Exec) (string, error)
}

// Run executes the experiment through the shared Runner and returns the
// structured Report: per-config result summaries plus the rendered text.
// Configurations already simulated by r — by this experiment or any
// other — are served from its cache.
func (e Experiment) Run(r *Runner, p Params) (*Report, error) {
	x := &Exec{R: r, P: p}
	start := time.Now()
	text, err := e.run(x)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	return &Report{
		ID:      e.ID,
		Title:   e.Title,
		Paper:   e.Paper,
		Params:  p,
		Env:     hostenv.Capture(),
		Configs: x.configs,
		Text:    text,
		Elapsed: time.Since(start).Seconds(),
	}, nil
}

// strongBodies is the default stand-in for the paper's 2M-body strong
// scaling workload.
const strongBodies = 16384

// weakPerThread is the default stand-in for 250K bodies/thread.
const weakPerThread = 1024

// strongThreads mirrors the paper's node counts.
var strongThreads = []int{1, 2, 4, 8, 16, 32, 64, 96, 112}

func (p Params) threads(def []int) []int {
	max := p.MaxThreads
	if max <= 0 {
		return def
	}
	var out []int
	for _, t := range def {
		if t <= max {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = []int{def[0]}
	}
	return out
}

func (p Params) bodies(def int) int {
	n := int(float64(def) * p.Scale)
	if n < 256 {
		n = 256
	}
	return n
}

func (p Params) steps() (int, int) {
	if p.Steps > 0 {
		return p.Steps, p.Warmup
	}
	return 4, 2
}

// options builds the standard options for an experiment configuration:
// simulated time on the given machine (nil = one thread per node), which
// is what the paper's tables are.
func options(p Params, n, threads int, level core.Level, m *machine.Machine) core.Options {
	opts := core.DefaultOptions(n, threads, level)
	opts.Steps, opts.Warmup = p.steps()
	opts.Scenario = p.Scenario
	if m != nil {
		opts.Machine = m
	}
	return opts
}

// PhaseTable is a paper-style table: one column group per thread count,
// rows per phase with time and percentage.
type PhaseTable struct {
	Title   string
	Threads []int
	Results []*core.Result
}

// phaseRows returns the phases to print for a level (the paper drops the
// c-of-m row from Table 6 on, and redistribution starts at Table 4).
func phaseRows(level core.Level) []core.Phase {
	switch {
	case level >= core.LevelMergedBuild:
		return []core.Phase{core.PhaseTree, core.PhasePartition, core.PhaseRedist, core.PhaseForce, core.PhaseAdvance}
	case level >= core.LevelRedistribute:
		return []core.Phase{core.PhaseTree, core.PhaseCofM, core.PhasePartition, core.PhaseRedist, core.PhaseForce, core.PhaseAdvance}
	default:
		return []core.Phase{core.PhaseTree, core.PhaseCofM, core.PhasePartition, core.PhaseForce, core.PhaseAdvance}
	}
}

// Format renders the table in the paper's layout.
func (pt *PhaseTable) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", pt.Title)
	level := pt.Results[0].Level
	rows := phaseRows(level)

	fmt.Fprintf(&b, "%-16s", "")
	for _, th := range pt.Threads {
		fmt.Fprintf(&b, "%14d", th)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-16s", "")
	for range pt.Threads {
		fmt.Fprintf(&b, "%9s%5s", "t(s)", "%")
	}
	b.WriteByte('\n')

	for _, ph := range rows {
		fmt.Fprintf(&b, "%-16s", ph.String())
		for _, r := range pt.Results {
			tot := r.Total()
			pct := 0.0
			if tot > 0 {
				pct = 100 * r.Phases[ph] / tot
			}
			fmt.Fprintf(&b, "%9s%5.1f", fmtTime(r.Phases[ph]), pct)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-16s", "Total")
	for _, r := range pt.Results {
		fmt.Fprintf(&b, "%9s%5s", fmtTime(r.Total()), "")
	}
	b.WriteByte('\n')
	return b.String()
}

func fmtTime(v float64) string {
	switch {
	case v == 0:
		return "0.0"
	case v < 0.01:
		return fmt.Sprintf("%.4f", v)
	case v < 10:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// strongScalingTable runs one optimization level across the strong
// scaling thread counts; the per-thread-count configurations are
// independent, so they execute concurrently on the Runner's pool.
func strongScalingTable(x *Exec, level core.Level, title string, machineFor func(threads int) *machine.Machine) (*PhaseTable, error) {
	p := x.P
	n := p.bodies(strongBodies)
	threads := p.threads(strongThreads)
	pt := &PhaseTable{Title: title, Threads: threads}
	opts := make([]core.Options, len(threads))
	for i, th := range threads {
		var m *machine.Machine
		if machineFor != nil {
			m = machineFor(th)
		}
		opts[i] = options(p, n, th, level, m)
	}
	results, err := x.runAll(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", title, err)
	}
	pt.Results = results
	return pt, nil
}

func tableExperiment(id, title, paper string, level core.Level, machineFor func(int) *machine.Machine) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Paper: paper,
		run: func(x *Exec) (string, error) {
			pt, err := strongScalingTable(x, level, title, machineFor)
			if err != nil {
				return "", err
			}
			return pt.Format(), nil
		},
	}
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	exps := []Experiment{
		tableExperiment("table2", "Table 2: baseline UPC BH (strong scaling)",
			"severe slow-down vs 1 thread; force comp ~97% of time; 112-thread total ~16x the 1-thread total", core.LevelBaseline, nil),
		tableExperiment("table3", "Table 3: + replicated shared scalars",
			"total at 112 threads drops ~79%; force comp still dominates", core.LevelScalars, nil),
		tableExperiment("table4", "Table 4: + body redistribution",
			"c-of-m and body-advance nearly eliminated; modest total gain", core.LevelRedistribute, nil),
		tableExperiment("table5", "Table 5: + caching via local tree",
			"force comp cut ~99% at scale, ~25% at 1 thread; first real speedups (~13x at 112)", core.LevelCacheTree, nil),
		tableExperiment("table6", "Table 6: + merged local tree build",
			"tree-building+c-of-m reduced ~74% at 112 threads; total -15%", core.LevelMergedBuild, nil),
		tableExperiment("table7", "Table 7: + non-blocking comm & aggregation",
			"force comp -81% at 112 threads; total -75%; speedup >70", core.LevelAsync, nil),
		tableExperiment("table8", "Table 8: subspace build, strong scaling, 1 process/node",
			"overall best; 1644x faster than baseline at 112 threads", core.LevelSubspace, nil),
		tableExperiment("table9", "Table 9: subspace build, strong scaling, 1 thread/node (-pthreads)",
			"threaded runtime ~1.4-2x slower than process mode at equal thread counts", core.LevelSubspace,
			func(th int) *machine.Machine { return machine.MustNew(th, 1, true, machine.Power5()) }),
	}
	exps = append(exps, figureExperiments()...)
	exps = append(exps, extensionExperiments()...)
	return exps
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (try `bhbench -list`)", id)
}
