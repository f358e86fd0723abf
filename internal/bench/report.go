package bench

import (
	"encoding/json"
	"sync"

	"upcbh/internal/core"
)

// ConfigRun records one executed configuration inside a Report: the full
// options (the stable core JSON contract), a summary of the core.Result,
// and whether the Runner served it from its memoization cache.
type ConfigRun struct {
	Key      string          `json:"key"`
	Options  core.Options    `json:"options"`
	CacheHit bool            `json:"cache_hit"`
	Phases   core.PhaseTimes `json:"phases"`
	Total    float64         `json:"total"`
	// Summary metrics lifted from core.Result (the full per-thread and
	// per-step detail stays in memory only).
	Interactions     uint64  `json:"interactions"`
	MigratedFraction float64 `json:"migrated_fraction"`
	Msgs             uint64  `json:"msgs"`
	Bytes            uint64  `json:"bytes"`
	// InteractionSkew is max/mean per-thread interaction count over the
	// measured steps (1.0 = perfectly balanced force work; the paper's
	// §5.2/§6 balancers exist to push this toward 1). Omitted for
	// single-thread runs, where it is 1 by construction.
	InteractionSkew float64 `json:"interaction_skew,omitempty"`
}

// interactionSkew returns max/mean of the per-thread interaction counts
// (0 when the result carries no per-thread detail or no interactions).
func interactionSkew(res *core.Result) float64 {
	if len(res.PerThread) < 2 || res.Interactions == 0 {
		return 0
	}
	var max uint64
	for _, tb := range res.PerThread {
		if tb.Interactions > max {
			max = tb.Interactions
		}
	}
	mean := float64(res.Interactions) / float64(len(res.PerThread))
	return float64(max) / mean
}

func newConfigRun(opts core.Options, res *core.Result, hit bool) ConfigRun {
	return ConfigRun{
		Key:              opts.Key(),
		Options:          opts,
		CacheHit:         hit,
		Phases:           res.Phases,
		Total:            res.Total(),
		Interactions:     res.Interactions,
		MigratedFraction: res.MigratedFraction,
		Msgs:             res.Stats.Msgs,
		Bytes:            res.Stats.Bytes,
		InteractionSkew:  interactionSkew(res),
	}
}

// Report is the structured outcome of one experiment: identification,
// the workload parameters it ran at, every configuration it executed
// (in execution order), and the rendered paper-layout text.
type Report struct {
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Paper   string      `json:"paper,omitempty"`
	Params  Params      `json:"params"`
	Env     Env         `json:"env"`
	Configs []ConfigRun `json:"configs,omitempty"`
	Text    string      `json:"text"`
	// Elapsed is the harness wall-clock time for the experiment in
	// seconds (not simulated time; cache hits make this shrink).
	Elapsed float64 `json:"elapsed_seconds"`
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Trajectory is the top-level document of a BENCH_results.json file: one
// bhbench invocation's reports plus the Runner's cache statistics, the
// machine-readable trail a perf trajectory is built from.
type Trajectory struct {
	Generated string      `json:"generated,omitempty"` // RFC3339, filled by the CLI
	GoVersion string      `json:"go_version,omitempty"`
	Params    Params      `json:"params"`
	Env       Env         `json:"env"`
	Runner    RunnerStats `json:"runner"`
	Reports   []*Report   `json:"reports"`
}

// JSON renders the trajectory as indented JSON.
func (t *Trajectory) JSON() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// Exec is the context one experiment body runs in: the shared Runner,
// the workload Params, and the accumulating per-config record that
// Experiment.Run folds into the Report. Its run helpers are safe for
// concurrent use (figures fan out configurations).
type Exec struct {
	R *Runner
	P Params

	mu      sync.Mutex
	configs []ConfigRun
}

// runOne executes a single configuration through the shared Runner and
// records it in the report.
func (x *Exec) runOne(opts core.Options) (*core.Result, error) {
	res, hit, err := x.R.Run(opts)
	if err != nil {
		return nil, err
	}
	x.mu.Lock()
	x.configs = append(x.configs, newConfigRun(opts, res, hit))
	x.mu.Unlock()
	return res, nil
}

// runAll executes a batch of independent configurations concurrently on
// the Runner's worker pool and records them in input order.
func (x *Exec) runAll(opts []core.Options) ([]*core.Result, error) {
	results, hits, err := x.R.RunAll(opts)
	if err != nil {
		return nil, err
	}
	x.mu.Lock()
	for i := range opts {
		x.configs = append(x.configs, newConfigRun(opts[i], results[i], hits[i]))
	}
	x.mu.Unlock()
	return results, nil
}
