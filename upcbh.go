// Package upcbh is the public API of the UPC Barnes-Hut reproduction: a
// distributed Barnes-Hut N-body simulator running on an emulated UPC
// (PGAS) runtime with a LogGP-style machine model, implementing every
// optimization level of "Optimizing the Barnes-Hut Algorithm in UPC"
// (Zhang, Behzad, Snir; 2011).
//
// Quick start:
//
//	opts := upcbh.DefaultOptions(16384, 8, upcbh.LevelSubspace)
//	sim, err := upcbh.New(opts)
//	res, err := sim.Run()
//	fmt.Println(res.Phases[upcbh.PhaseForce]) // simulated seconds
//
// The simulated per-phase times in Result correspond to the rows of the
// paper's tables; Result.Bodies is the real physical outcome, validated
// against direct summation in the test suite.
//
// Two execution backends are available (Options.ExecMode). ModeSimulate
// (the default, shown above) charges every UPC operation against the
// LogGP machine model and reports simulated cluster times, at every
// level. ModeNative runs the time-step as a real parallel Go program —
// goroutine per UPC thread, real barriers, no cost accounting, one flat
// octree built in parallel in place of the shared pointer tree — and
// reports measured wall-clock phase times instead:
//
//	opts.ExecMode = upcbh.ModeNative
//	sim, err := upcbh.New(opts)
//	res, err := sim.Run() // res.Phases are now measured wall seconds
//
// Native starts at LevelCacheTree: the three levels below it differ only
// in remote accesses, which native execution does not have, and New
// rejects them. The physics is identical between modes.
package upcbh

import (
	"io"

	"upcbh/internal/core"
	"upcbh/internal/machine"
	"upcbh/internal/nbody"
	"upcbh/internal/vec"
)

// Re-exported core types. See the internal/core documentation for
// details; these aliases are the supported public surface.
type (
	// Options configures a simulation run.
	Options = core.Options
	// Result is the outcome of a run: per-phase simulated times,
	// per-thread breakdowns, operation statistics, and final body state.
	Result = core.Result
	// Sim is a configured simulation. Besides run-to-completion (Run),
	// it supports a steppable session lifecycle: Step(k) advances k
	// time-steps and pauses, Snapshot copies out the paused state,
	// Finish collects the Result, Release recycles storage:
	//
	//	sim, _ := upcbh.New(opts)
	//	for done := 0; done < opts.Steps; done++ {
	//		_ = sim.Step(1)
	//		snap, _ := sim.Snapshot() // bodies, clocks, phase tables
	//		_ = snap
	//	}
	//	res, _ := sim.Finish()
	//	sim.Release()
	Sim = core.Sim
	// Snapshot is the observable state of a paused simulation at a step
	// boundary (see Sim.Snapshot); bhrun -stream emits one per line.
	Snapshot = core.Snapshot
	// Level is a cumulative optimization level from the paper.
	Level = core.Level
	// ExecMode selects the execution backend: cost-modelled simulation
	// (ModeSimulate, the paper reproduction) or real parallel execution
	// with wall-clock timing (ModeNative).
	ExecMode = core.ExecMode
	// Phase identifies one phase of a time-step.
	Phase = core.Phase
	// Body is one simulated particle.
	Body = nbody.Body
	// Scenario is a named, seeded initial-condition generator; select
	// one by name via Options.Scenario.
	Scenario = nbody.Scenario
	// V3 is a 3-component vector.
	V3 = vec.V3
	// Machine describes the emulated cluster configuration.
	Machine = machine.Machine
	// MachineParams holds the LogGP cost-model constants.
	MachineParams = machine.Params
)

// Optimization levels (§4-§6 of the paper), cumulative.
const (
	LevelBaseline     = core.LevelBaseline
	LevelScalars      = core.LevelScalars
	LevelRedistribute = core.LevelRedistribute
	LevelCacheTree    = core.LevelCacheTree
	LevelMergedBuild  = core.LevelMergedBuild
	LevelAsync        = core.LevelAsync
	LevelSubspace     = core.LevelSubspace
	NumLevels         = core.NumLevels
)

// Execution backends (Options.ExecMode).
const (
	ModeSimulate = core.ModeSimulate
	ModeNative   = core.ModeNative
)

// Time-step phases (the rows of the paper's tables).
const (
	PhaseTree      = core.PhaseTree
	PhaseCofM      = core.PhaseCofM
	PhasePartition = core.PhasePartition
	PhaseRedist    = core.PhaseRedist
	PhaseForce     = core.PhaseForce
	PhaseAdvance   = core.PhaseAdvance
	NumPhases      = core.NumPhases
)

// New creates a simulation from options.
func New(opts Options) (*Sim, error) { return core.New(opts) }

// Restore reconstructs a paused simulation from a checkpoint container
// written by Sim.Checkpoint (or Sim.CheckpointFile): the restored Sim
// resumes at the captured step, and its remaining trajectory — phase
// tables, snapshots, and the final Result — is byte-identical to the
// run that wrote the checkpoint continuing uninterrupted. A corrupted,
// truncated, or mismatched container is rejected with a descriptive
// error.
func Restore(r io.Reader) (*Sim, error) { return core.Restore(r) }

// DefaultOptions returns paper/SPLASH2 defaults for n bodies on the given
// number of emulated UPC threads (one per node) at an optimization level.
func DefaultOptions(n, threads int, level Level) Options {
	return core.DefaultOptions(n, threads, level)
}

// ParseLevel maps a level name ("baseline", ..., "subspace") to a Level.
func ParseLevel(s string) (Level, error) { return core.ParseLevel(s) }

// ParseExecMode maps a backend name ("simulate", "native") to an ExecMode.
func ParseExecMode(s string) (ExecMode, error) { return core.ParseExecMode(s) }

// ParseScenario maps a workload-scenario name ("plummer", "two-plummer",
// "uniform", "clustered", "disk"; "" means "plummer") to its generator.
func ParseScenario(s string) (Scenario, error) { return nbody.ParseScenario(s) }

// Scenarios returns the registered workload scenarios in presentation
// order.
func Scenarios() []Scenario { return nbody.Scenarios() }

// GenerateScenario generates n bodies from the named scenario with a
// deterministic seed.
func GenerateScenario(name string, n int, seed uint64) ([]Body, error) {
	return nbody.GenerateScenario(name, n, seed)
}

// NewMachine describes an emulated cluster: total UPC threads, threads
// packed per node, and whether the threaded (-pthreads) runtime is used.
func NewMachine(threads, threadsPerNode int, pthreads bool) (*Machine, error) {
	return machine.New(threads, threadsPerNode, pthreads, machine.Power5())
}

// Power5Params returns the cost-model preset calibrated to the paper's
// IBM Power5/LAPI cluster.
func Power5Params() MachineParams { return machine.Power5() }

// Plummer generates n bodies from the Plummer model (the paper's initial
// conditions) with a deterministic seed.
func Plummer(n int, seed uint64) []Body { return nbody.Plummer(n, seed) }

// TwoPlummer generates a two-cluster collision setup.
func TwoPlummer(n int, seed uint64, offset, vrel V3) []Body {
	return nbody.TwoPlummer(n, seed, offset, vrel)
}

// Energy returns kinetic and potential energy by direct summation
// (O(n^2); diagnostics at modest n).
func Energy(bodies []Body, eps float64) (kinetic, potential float64) {
	return nbody.Energy(bodies, eps)
}
