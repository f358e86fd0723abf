package core

import (
	"fmt"

	"upcbh/internal/nbody"
)

// Snapshot is a zero-surprise copy of the observable simulation state
// at a step boundary: body state, per-thread clocks, and the phase
// tables accumulated over the measured steps so far. Everything is
// copied out — a Snapshot stays valid after further Steps, Finish, and
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
	// time under ModeSimulate, wall-clock seconds since the runtime
	// epoch under ModeNative.
	Clocks []float64 `json:"clocks"`

	// Phases and StepPhases mirror Result: per-step maxima across
	// threads over the measured steps completed so far, and their sum.
	Phases     PhaseTimes   `json:"phases"`
	StepPhases []PhaseTimes `json:"step_phases"`

	// Interactions counts body-body and body-cell force interactions
	// across all threads (measured steps only).
	Interactions uint64 `json:"interactions"`

	// Bodies is the full body state in ID order. Omitted from the JSON
	// stream unless requested (bhrun -snap-bodies): at realistic body
	// counts it dominates the snapshot size.
	Bodies []nbody.Body `json:"bodies,omitempty"`

	// rowText is the Sim's step-phase rows as of this snapshot and their
	// JSON, which AppendJSON copies for the rows StepPhases still holds
	// unedited. Zero on a snapshot no Sim took.
	rowText rowText
}

// Snapshot copies out the simulation state at the current step
// boundary. On a fresh Sim it starts the session (threads run setup and
// park before step 0), so a step-0 snapshot observes the initial
// conditions as distributed. It is legal while the session is paused
// and after Finish; it is an error after Release, when the body storage
// has been recycled. Taking a snapshot never perturbs the simulation:
// the runtime is quiescent at a pause, and every read here is a copy.
func (s *Sim) Snapshot() (*Snapshot, error) {
	snap, err := s.SnapshotMeta()
	if err != nil {
		return nil, err
	}
	bodies, err := s.gatherBodies()
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
	p := s.rt.Threads()
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
		snap.Clocks[i] = s.rt.ThreadNow(i)
	}
	tab, err := s.stepPhaseTable()
	if err != nil {
		return nil, err
	}
	snap.StepPhases = make([]PhaseTimes, len(tab.rows))
	copy(snap.StepPhases, tab.rows)
	snap.Phases = tab.sum
	snap.rowText = rowText{rows: tab.rows[:len(tab.rows):len(tab.rows)], text: tab.text}
	for _, st := range s.ts {
		snap.Interactions += st.inter
	}
	return snap, nil
}

// phaseTable is a Sim's step-phase table, reduced once per row instead
// of once per snapshot: rows[k] is measured step k's per-phase maxima
// across threads, and sum their running total (added in row order, so its
// bits are the ones a fresh sum over rows gives). It only grows, by at
// most one extension per step, so a snapshot's view of it (rowText)
// stays valid while later steps extend it. text is the rows' JSON, which
// AppendJSON formats once, on demand. A restored Sim starts with an empty
// table and rebuilds it at its first snapshot.
type phaseTable struct {
	rows []PhaseTimes
	sum  PhaseTimes
	text *phaseText
}

// stepPhaseTable brings the table up to the measured steps done and
// returns it. Snapshots and collect read the phase tables only through
// it. Only safe while the runtime is quiescent (session paused or
// finished).
func (s *Sim) stepPhaseTable() (*phaseTable, error) {
	measured := max(s.stepsDone-s.o.Warmup, 0)
	for i, st := range s.ts {
		if len(st.stepPh) != measured {
			return nil, fmt.Errorf("core: thread %d recorded %d measured steps, want %d", i, len(st.stepPh), measured)
		}
	}
	tab := &s.stepTab
	for k := len(tab.rows); k < measured; k++ {
		var row PhaseTimes
		for _, st := range s.ts {
			row.MaxInto(st.stepPh[k])
		}
		tab.rows = append(tab.rows, row)
		tab.sum.Add(row)
	}
	return tab, nil
}
