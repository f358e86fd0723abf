package upc

import (
	"encoding/json"
	"fmt"
)

// ExecMode names an execution backend: how a run is timed and what its
// thread clocks mean. Only ModeSimulate is a Runtime; the name lives here
// because internal/core aliases the type, and Options and Results carry
// it by name.
type ExecMode int

const (
	// ModeSimulate is the paper-reproduction backend, this package's
	// Runtime: every operation advances the calling thread's simulated
	// LogGP clock, remote messages occupy the target NIC, and all
	// reported times are simulated seconds on the modelled machine.
	ModeSimulate ExecMode = iota
	// ModeNative is internal/core's native engine: its threads are a
	// fork-join team of goroutines meeting at real barriers, with no
	// simulated-time accounting, so phase timings are measured
	// wall-clock seconds on the host hardware.
	ModeNative
)

var execModeNames = [...]string{"simulate", "native"}

// String returns the mode's flag name ("simulate" or "native").
func (m ExecMode) String() string {
	if m < 0 || int(m) >= len(execModeNames) {
		return fmt.Sprintf("ExecMode(%d)", int(m))
	}
	return execModeNames[m]
}

// ParseExecMode maps a mode name back to an ExecMode.
func ParseExecMode(s string) (ExecMode, error) {
	for i, n := range execModeNames {
		if n == s {
			return ExecMode(i), nil
		}
	}
	return 0, fmt.Errorf("upc: unknown exec mode %q (want simulate|native)", s)
}

// MarshalJSON encodes the mode as its flag name ("simulate"/"native") so
// serialized reports stay readable and stable across reorderings.
func (m ExecMode) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.String())
}

// UnmarshalJSON decodes a flag name back into an ExecMode.
func (m *ExecMode) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseExecMode(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}
