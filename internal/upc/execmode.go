package upc

import (
	"encoding/json"
	"fmt"
)

// ExecMode selects the execution backend of a Runtime: how operations are
// timed, what Thread.Now means, and how much of the runtime exists. The
// simulate backend is the whole emulated UPC runtime. The native backend
// is the subset a program with no communication uses: SPMD launch and
// the session step gate (Run, Start/NextStep/Resume/Finish), Barrier,
// Now, Stats and poisoning. Shared heaps, scalars, locks, collectives
// and SpinYield panic on a native runtime (Runtime.sim).
type ExecMode int

const (
	// ModeSimulate is the paper-reproduction backend: every operation
	// advances the calling thread's simulated LogGP clock, remote messages
	// occupy the target NIC, and all reported times are simulated seconds
	// on the modelled machine.
	ModeSimulate ExecMode = iota
	// ModeNative skips simulated-time accounting entirely: threads run as
	// plain goroutines meeting at real barriers, cost charges do not
	// affect time, and Thread.Now returns measured wall-clock seconds
	// since the runtime was built — so phase timings become real
	// measured times on the host hardware.
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
