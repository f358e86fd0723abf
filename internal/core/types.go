// Package core implements the paper's contribution: the distributed
// Barnes-Hut algorithm in the emulated UPC runtime, at every optimization
// level the paper describes (§4-§6), with the SPLASH2 phase structure and
// per-phase simulated timing.
package core

import (
	"encoding/json"
	"fmt"

	"upcbh/internal/machine"
	"upcbh/internal/nbody"
	"upcbh/internal/upc"
)

// Phase identifies one phase of a Barnes-Hut time-step, matching the rows
// of the paper's tables.
type Phase int

// The phases, in execution order.
const (
	PhaseTree Phase = iota // tree building (incl. bounding box; incl. merge/cofm at L4+)
	PhaseCofM              // center-of-mass computation (separate phase at L0-L3, simulate only)
	PhasePartition
	PhaseRedist // body redistribution (L2+)
	PhaseForce
	PhaseAdvance
	NumPhases
)

var phaseNames = [NumPhases]string{
	"Tree-building", "C-of-m Comp.", "Partitioning", "Redistribution",
	"Force Comp.", "Body-adv.",
}

// String returns the paper's row label for the phase.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("Phase(%d)", int(p))
	}
	return phaseNames[p]
}

// PhaseTimes holds seconds per phase: simulated seconds in ModeSimulate,
// measured wall-clock seconds in ModeNative.
type PhaseTimes [NumPhases]float64

// ExecMode selects the execution backend: ModeSimulate charges every UPC
// operation against the LogGP machine model and reports simulated times
// (the paper reproduction, every level); ModeNative runs the time-step
// with real goroutine parallelism on the flat tree of flatnative.go and
// reports measured wall-clock phase times. Native starts at
// LevelCacheTree: below it the levels differ only in remote accesses,
// which native execution does not have.
type ExecMode = upc.ExecMode

// Execution backends.
const (
	ModeSimulate = upc.ModeSimulate
	ModeNative   = upc.ModeNative
)

// ParseExecMode maps a mode name ("simulate", "native") to an ExecMode.
func ParseExecMode(s string) (ExecMode, error) { return upc.ParseExecMode(s) }

// ParseScenario validates a workload-scenario name ("" means the
// default "plummer") and returns its generator. See nbody.Scenarios.
func ParseScenario(s string) (nbody.Scenario, error) { return nbody.ParseScenario(s) }

// Total returns the summed time over all phases.
func (pt PhaseTimes) Total() float64 {
	var s float64
	for _, v := range pt {
		s += v
	}
	return s
}

// Add accumulates o into pt.
func (pt *PhaseTimes) Add(o PhaseTimes) {
	for i := range pt {
		pt[i] += o[i]
	}
}

// MaxInto keeps the element-wise maximum of pt and o in pt.
func (pt *PhaseTimes) MaxInto(o PhaseTimes) {
	for i := range pt {
		if o[i] > pt[i] {
			pt[i] = o[i]
		}
	}
}

// Level is a cumulative optimization level from the paper. Each level
// includes all optimizations of the levels below it.
type Level int

// The optimization levels, in the order the paper introduces them.
const (
	// LevelBaseline is the §4 literal SPLASH2 port: shared scalars on
	// thread 0, static block body distribution, fine-grained remote
	// accesses everywhere, lock-based global tree insertion.
	LevelBaseline Level = iota
	// LevelScalars replicates write-once/write-rarely shared scalars
	// (tol, eps, rsize) on every thread (§5.1).
	LevelScalars
	// LevelRedistribute redistributes bodies to their owning threads each
	// time-step with an indexed memget into a double buffer (§5.2).
	LevelRedistribute
	// LevelCacheTree caches remote octree cells on demand in a private
	// local tree during force computation (§5.3).
	LevelCacheTree
	// LevelMergedBuild builds per-thread local trees and merges them into
	// the global octree, folding the center-of-mass computation into the
	// merge (§5.4).
	LevelMergedBuild
	// LevelAsync adds non-blocking communication and message aggregation
	// to the cached force computation (§5.5).
	LevelAsync
	// LevelSubspace replaces tree construction with the cost-based
	// level-by-level subspace algorithm with vector reductions (§6).
	LevelSubspace

	NumLevels
)

var levelNames = [NumLevels]string{
	"baseline", "scalars", "redistribute", "cache", "merged", "async", "subspace",
}

// String returns a short name for the level.
func (l Level) String() string {
	if l < 0 || l >= NumLevels {
		return fmt.Sprintf("Level(%d)", int(l))
	}
	return levelNames[l]
}

// ParseLevel maps a short name back to a Level.
func ParseLevel(s string) (Level, error) {
	for i, n := range levelNames {
		if n == s {
			return Level(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown optimization level %q", s)
}

// MarshalJSON encodes the level as its short name, keeping serialized
// reports readable and stable if the level enumeration is ever reordered.
func (l Level) MarshalJSON() ([]byte, error) {
	return json.Marshal(l.String())
}

// UnmarshalJSON decodes a short name back into a Level.
func (l *Level) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseLevel(s)
	if err != nil {
		return err
	}
	*l = parsed
	return nil
}

// Options configures one simulation run. The JSON field tags are the
// stable serialization contract used by the bench harness's reports.
type Options struct {
	Bodies int `json:"bodies"`
	Steps  int `json:"steps"`  // total time-steps to run
	Warmup int `json:"warmup"` // steps excluded from timing (the paper runs 4, measures the last 2)

	Theta float64 `json:"theta"` // opening criterion (SPLASH2 default 1.0)
	Eps   float64 `json:"eps"`   // potential softening (SPLASH2 default 0.05)
	Dt    float64 `json:"dt"`    // time-step (SPLASH2 default 0.025)
	Seed  uint64  `json:"seed"`

	// Scenario names the initial-condition generator (see
	// nbody.Scenarios): "plummer" (the paper's workload, also the
	// default for ""), "two-plummer", "uniform", "clustered", "disk".
	// Ignored when SetBodies supplies the bodies directly.
	Scenario string `json:"scenario,omitempty"`

	// ExecMode selects the execution backend (default ModeSimulate). The
	// physics is mode-independent; only the timing policy changes.
	ExecMode ExecMode `json:"exec_mode"`

	Level           Level   `json:"level"`
	AliasLocalCells bool    `json:"alias_local_cells"` // §5.3.2: avoid copying cells that are already local
	VectorReduce    bool    `json:"vector_reduce"`     // §6: vector (true) vs per-subspace scalar (false) reductions
	N1              int     `json:"n1"`                // §5.5 async framework parameters (default 4,4,4)
	N2              int     `json:"n2"`
	N3              int     `json:"n3"`
	SubspaceAlpha   float64 `json:"subspace_alpha"`
	// Verify enables per-step structural verification of the global
	// octree (body uniqueness, exact cost sums, additive masses). For
	// tests: it adds an extra barrier per step.
	Verify bool `json:"verify,omitempty"`

	// TransparentCache enables the §8-surveyed MuPC/Berkeley-style
	// runtime software cache (barrier-invalidated, per-thread) for the
	// read-only accesses of the naive force computation and for shared
	// scalars. Only meaningful below LevelCacheTree; the ext-cache
	// experiment compares it against the paper's manual caching.
	TransparentCache bool `json:"transparent_cache,omitempty"`

	// testBufferCap overrides the §5.2 double-buffer capacity; tests use
	// it to exercise the compaction path deterministically.
	testBufferCap int

	// testStepHook, when set, runs on every thread at the end of each
	// time-step (after the advance barrier); the allocation-regression
	// tests use it to sample per-step memory statistics in place.
	testStepHook func(thread, step int)

	Machine *machine.Machine `json:"machine"`
}

// DefaultOptions returns the SPLASH2/paper defaults for n bodies on
// `threads` emulated UPC threads, one per node, at the given level.
func DefaultOptions(n, threads int, level Level) Options {
	return Options{
		Bodies: n,
		Steps:  4,
		Warmup: 2,
		Theta:  1.0,
		Eps:    0.05,
		Dt:     0.025,
		Seed:   123,
		Level:  level,

		VectorReduce:  true,
		N1:            4,
		N2:            4,
		N3:            4,
		SubspaceAlpha: 2.0 / 3.0,

		Machine: machine.Default(threads),
	}
}

func (o *Options) validate() error {
	if o.Bodies < 2 {
		return fmt.Errorf("core: need at least 2 bodies, got %d", o.Bodies)
	}
	if o.Machine == nil {
		return fmt.Errorf("core: Options.Machine is required")
	}
	// Options arrive from HTTP bodies and checkpoint containers without
	// passing machine.New, so the machine's shape is checked here too.
	if o.Machine.Threads < 1 || o.Machine.ThreadsPerNode < 1 {
		return fmt.Errorf("core: machine needs Threads >= 1 and ThreadsPerNode >= 1, got %d and %d",
			o.Machine.Threads, o.Machine.ThreadsPerNode)
	}
	if o.Warmup < 0 {
		return fmt.Errorf("core: Warmup must be non-negative, got %d", o.Warmup)
	}
	if o.Steps <= o.Warmup {
		return fmt.Errorf("core: Steps (%d) must exceed Warmup (%d)", o.Steps, o.Warmup)
	}
	if o.Level < 0 || o.Level >= NumLevels {
		return fmt.Errorf("core: invalid level %d", int(o.Level))
	}
	if o.ExecMode != ModeSimulate && o.ExecMode != ModeNative {
		return fmt.Errorf("core: invalid exec mode %d", int(o.ExecMode))
	}
	if o.ExecMode == ModeNative && o.Level < LevelCacheTree {
		// L0-L2 are the paper's study of fine-grained remote access;
		// with a remote get a plain load there is nothing left to run.
		return fmt.Errorf("core: level %v is simulate-only: native mode starts at level %v", o.Level, LevelCacheTree)
	}
	if o.Theta <= 0 {
		return fmt.Errorf("core: Theta must be positive")
	}
	if _, err := nbody.ParseScenario(o.Scenario); err != nil {
		return err
	}
	if o.Scenario == "" {
		o.Scenario = nbody.DefaultScenario
	}
	if o.N1 <= 0 {
		o.N1 = 4
	}
	if o.N2 <= 0 {
		o.N2 = 4
	}
	if o.N3 <= 0 {
		o.N3 = 4
	}
	if o.SubspaceAlpha <= 0 {
		o.SubspaceAlpha = 2.0 / 3.0
	}
	return nil
}

// ThreadBreakdown reports one thread's timing detail.
type ThreadBreakdown struct {
	Phases PhaseTimes `json:"phases"` // summed over measured steps
	// TreeLocal/TreeMerge split PhaseTree at LevelMergedBuild+ (figure
	// 8): local tree construction vs merging into the global tree.
	TreeLocal float64 `json:"tree_local"`
	TreeMerge float64 `json:"tree_merge"`
	// Interactions this thread computed during measured steps — the
	// load that costzones / the subspace owner assignment balances.
	Interactions uint64 `json:"interactions"`
}

// Result is the outcome of a simulation run. The JSON field tags are the
// stable serialization contract used by the bench harness's reports; the
// raw body state is deliberately excluded from serialization.
type Result struct {
	Level   Level `json:"level"`
	Threads int   `json:"threads"`
	// ExecMode records which backend produced the timings: simulated
	// seconds (ModeSimulate) or measured wall-clock seconds (ModeNative).
	ExecMode ExecMode `json:"exec_mode"`

	// Phases is the per-phase time: max over threads within each measured
	// step, summed over measured steps — the quantity the paper's tables
	// report (simulated in ModeSimulate, wall-clock in ModeNative).
	Phases PhaseTimes `json:"phases"`
	// StepPhases is the same, per measured step.
	StepPhases []PhaseTimes `json:"step_phases,omitempty"`
	// PerThread is each thread's own accumulated phase times.
	PerThread []ThreadBreakdown `json:"per_thread,omitempty"`

	Stats upc.Stats `json:"stats"`
	// Sched counts cooperative-scheduler events (baton handoffs between
	// emulated threads, spin-wait yields) over the whole run — the real
	// synchronization cost the simulate backend paid. Zero in ModeNative.
	Sched upc.SchedStats `json:"sched"`
	// PhaseComm breaks the operation counters down by phase (aggregated
	// over threads, measured steps only) — the communication profile the
	// paper's per-phase analysis reasons about.
	PhaseComm        [NumPhases]upc.Stats `json:"phase_comm,omitempty"`
	Interactions     uint64               `json:"interactions"`
	MigratedFraction float64              `json:"migrated_fraction"` // bodies claimed by a thread that did not advance them last step, per step / bodies, averaged over measured steps
	BufferCopies     int                  `json:"buffer_copies"`     // §5.2 double-buffer compactions; always 0 under ModeNative, which has no buffers
	// CellsCopied / CellsAliased count local-tree cache fills that copied
	// a cell vs aliased an already-local cell via a shadow pointer
	// (§5.3.1 vs §5.3.2).
	CellsCopied  uint64 `json:"cells_copied"`
	CellsAliased uint64 `json:"cells_aliased"`

	// Bodies is the final state of all bodies in ID order, for physics
	// validation and the examples. Excluded from JSON reports: at paper
	// scales it dwarfs every other field combined.
	Bodies []nbody.Body `json:"-"`
}

// Total returns the total simulated time over the measured steps.
func (r *Result) Total() float64 { return r.Phases.Total() }
