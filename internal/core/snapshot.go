package core

import (
	"fmt"

	"upcbh/internal/nbody"
)

// Snapshot is the observable simulation state at a step boundary: body
// state, per-thread clocks, and the phase tables accumulated over the
// measured steps so far. Bodies and clocks are copies; StepPhases is a
// read-only view of the Sim's append-only step-phase table, whose rows
// are never rewritten, capped at its length so that a caller's append
// copies. A Snapshot stays valid after further Steps, Finish, and
// Release, and marshals cleanly to JSON (bhrun -stream emits exactly
// this type, one object per line). Writers on a hot path use AppendJSON
// (snapjson.go): the same bytes without the reflection.
type Snapshot struct {
	// Step is the number of completed time-steps (0 for a snapshot
	// taken before the first Step); Steps is the configured total.
	Step  int `json:"step"`
	Steps int `json:"steps"`

	// Warmup steps precede the measured window; StepPhases covers only
	// steps >= Warmup.
	Warmup int `json:"warmup"`

	Level    Level    `json:"level"`
	ExecMode ExecMode `json:"exec_mode"`
	Threads  int      `json:"threads"`
	Scenario string   `json:"scenario"`

	// Time is the simulated physical time, Step * Options.Dt.
	Time float64 `json:"time"`

	// Clocks[i] is thread i's clock at the pause: the charged virtual
	// time under ModeSimulate, wall-clock seconds since the session
	// started under ModeNative.
	Clocks []float64 `json:"clocks"`

	// Phases and StepPhases mirror Result: per-step maxima across
	// threads over the measured steps completed so far, and their sum.
	// StepPhases is read-only (see above); KeepSteps trims it.
	Phases     PhaseTimes   `json:"phases"`
	StepPhases []PhaseTimes `json:"step_phases"`

	// Interactions counts body-body and body-cell force interactions
	// across all threads (measured steps only).
	Interactions uint64 `json:"interactions"`

	// Bodies is the full body state in ID order. Omitted from the JSON
	// stream unless requested (bhrun -snap-bodies): at realistic body
	// counts it dominates the snapshot size.
	Bodies []nbody.Body `json:"bodies,omitempty"`
}

// KeepSteps trims StepPhases to the rows of the snapshot's last k steps:
// k rows, fewer where those steps fall in the warmup. A step response
// and a stream frame carry only the steps since the previous one
// (bhserve, bhrun -stream); Phases stays the running sum.
func (s *Snapshot) KeepSteps(k int) {
	n := len(s.StepPhases)
	s.StepPhases = s.StepPhases[n-min(k, n):]
}

// Snapshot copies out the simulation state at the current step
// boundary. On a fresh Sim it starts the session (threads run setup and
// stop before step 0), so a step-0 snapshot observes the initial
// conditions as distributed. It is legal while the session is paused
// and after Finish; it is an error after Release, when the body storage
// has been recycled. Taking a snapshot never perturbs the simulation:
// no thread runs at a pause, and a snapshot only reads.
// Its Bodies are a fresh slice the caller owns.
func (s *Sim) Snapshot() (*Snapshot, error) { return s.SnapshotInto(nil) }

// SnapshotInto is Snapshot with the bodies gathered into buf's memory
// when its capacity holds them all (a new slice otherwise): a caller that
// publishes bodies every step reuses a few slices instead of making one
// per snapshot. The snapshot's Bodies then alias buf, whose owner decides
// when they may be overwritten: a later gather into the same memory
// rewrites this snapshot's bodies, so no reader may keep them past the
// point their owner takes buf back.
func (s *Sim) SnapshotInto(buf []nbody.Body) (*Snapshot, error) {
	snap, err := s.SnapshotMeta()
	if err != nil {
		return nil, err
	}
	bodies, err := s.gatherInto(buf)
	if err != nil {
		return nil, err
	}
	snap.Bodies = bodies
	return snap, nil
}

// SnapshotMeta is Snapshot without the body state: step counters,
// clocks, and the accumulated phase tables, with Bodies left nil. The
// full-body gather is the bulk of a Snapshot (copy every body to its
// ID's slot); callers that only report progress — the session
// service's step responses, metadata-only stream frames — use this
// path, which allocates only the fixed-size metadata.
func (s *Sim) SnapshotMeta() (*Snapshot, error) {
	switch s.state {
	case simNew:
		s.start()
	case simPaused, simFinished:
	case simReleased:
		return nil, fmt.Errorf("core: Snapshot on a released Sim: %w", ErrReleased)
	}
	p := len(s.ts)
	snap := &Snapshot{
		Step:     s.stepsDone,
		Steps:    s.o.Steps,
		Warmup:   s.o.Warmup,
		Level:    s.o.Level,
		ExecMode: s.o.ExecMode,
		Threads:  p,
		Scenario: s.o.Scenario,
		Time:     float64(s.stepsDone) * s.o.Dt,
		Clocks:   make([]float64, p),
	}
	for i := 0; i < p; i++ {
		snap.Clocks[i] = s.eng.clock(i)
	}
	tab := &s.stepTab
	snap.StepPhases = tab.rows[:len(tab.rows):len(tab.rows)]
	snap.Phases = tab.sum
	for _, st := range s.ts {
		snap.Interactions += st.inter
	}
	return snap, nil
}

// phaseTable is a Sim's step-phase table: rows[k] is measured step k's
// per-phase maxima across threads, and sum their running total (added in
// row order, so its bits are the ones a fresh sum over rows gives).
// Thread 0 appends one row per measured step (reduce); only a restore,
// into a Sim no snapshot has seen, writes it otherwise. So a snapshot's
// view of the rows stays valid while later steps extend the table.
type phaseTable struct {
	rows []PhaseTimes
	sum  PhaseTimes
}

// reduce appends the row of the step every thread just finished: the
// maximum over the threads' rows, in thread order.
func (tab *phaseTable) reduce(ts []*tstate) {
	var row PhaseTimes
	for _, st := range ts {
		row.MaxInto(st.row)
	}
	tab.rows = append(tab.rows, row)
	tab.sum.Add(row)
}
