package upc

import (
	"encoding/json"
	"fmt"
	"time"
)

// ExecMode selects the execution backend of a Runtime: how operations are
// timed and what Thread.Now means. The mechanisms of the runtime (shared
// heap storage, data transfer, locks, barriers, collectives, poisoning)
// are identical in every mode; only the timing policy differs.
type ExecMode int

const (
	// ModeSimulate is the paper-reproduction backend: every operation
	// advances the calling thread's simulated LogGP clock, remote messages
	// occupy the target NIC, and all reported times are simulated seconds
	// on the modelled machine.
	ModeSimulate ExecMode = iota
	// ModeNative skips simulated-time accounting entirely: threads run as
	// plain goroutines with real locks and barriers, cost charges are
	// no-ops, and Thread.Now returns measured wall-clock seconds since the
	// runtime (or clock-reset) epoch — so phase timings in the harness
	// become real measured times on the host hardware.
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

// costModel is the seam between the runtime's mechanisms and its timing
// policy, for the operations whose policy differs per mode and that run
// off the hot path: reading the time (now), the time part of a barrier,
// the charge of a collective, polling a handle (trySync), the lock
// acquire/release pair, and restarting time (reset). Stats counting and
// the real synchronization primitives (channel locks, generation
// barriers, collective rendezvous) stay in the mechanism layer because
// they are mode-independent.
//
// Everything that runs per charged access is NOT here: the clock ops
// (Thread.Charge/ChargeRaw/AdvanceTo) and the message accounting
// (Thread.remoteRoundTrip/SendEvent/gatherFrom) are implemented directly
// on Thread behind the Runtime.native flag. They run millions of times
// per phase, so simulate pays a static call and a msgCosts table load,
// native one predictable branch, and neither an interface dispatch.
type costModel interface {
	mode() ExecMode

	// now returns thread t's current time: the simulated clock, or
	// wall-clock seconds since the runtime epoch.
	now(t *Thread) float64

	// barrier performs the time part of Thread.Barrier. It must rendezvous
	// through rt.bar in every mode (the real synchronization lives there).
	barrier(t *Thread)
	// collectiveCost returns the time charge of one collective carrying
	// `bytes` per hop; the rendezvous itself is handled by collSite.
	collectiveCost(t *Thread, bytes int) float64

	// trySync polls an outstanding handle (one poll charge applies).
	trySync(t *Thread, h *Handle) bool

	// lockAcquired accounts the acquisition of l, after the real lock has
	// been taken; lockReleasing accounts the release, before the real lock
	// is handed back.
	lockAcquired(t *Thread, l *Lock)
	lockReleasing(t *Thread, l *Lock)

	// reset restarts the model's notion of time (simulated clocks and NIC
	// occupancy, or the wall-clock epoch).
	reset(rt *Runtime)
}

// simCost is the ModeSimulate policy: the LogGP cost model of
// internal/machine, with per-thread simulated clocks and NIC occupancy
// serialization. It is stateless; all state lives on Runtime/Thread.
type simCost struct{}

func (simCost) mode() ExecMode        { return ModeSimulate }
func (simCost) now(t *Thread) float64 { return t.clock }

func (simCost) barrier(t *Thread) {
	t.rt.coop.barrier(t)
}

func (simCost) collectiveCost(t *Thread, bytes int) float64 {
	return t.rt.mach.CollectiveCost(bytes)
}

func (simCost) trySync(t *Thread, h *Handle) bool {
	t.clock += t.rt.mach.Par.LocalDerefCost * 50
	return t.clock >= h.CompleteAt
}

func (simCost) lockAcquired(t *Thread, l *Lock) {
	m := t.rt.mach
	c := t.msgCost(l.home, lockMsgBytes)
	// Request is serviced at the home no earlier than the lock frees up.
	req := t.clock + c.SenderBusy + c.Transit
	if l.availAt > req {
		req = l.availAt
	}
	t.clock = req + m.Par.LockOverhead + c.Transit
}

func (simCost) lockReleasing(t *Thread, l *Lock) {
	m := t.rt.mach
	c := t.msgCost(l.home, lockMsgBytes)
	l.availAt = t.clock + c.SenderBusy + c.Transit + m.Par.LockOverhead
	t.clock += c.SenderBusy
}

func (simCost) reset(rt *Runtime) {
	for _, t := range rt.threads {
		t.clock = 0
	}
	for i := range rt.nic {
		rt.nic[i].availAt = 0
	}
}

// nativeCost is the ModeNative policy: no simulated accounting at all.
// Time is the host wall clock, charges are no-ops, outstanding handles
// are complete as soon as they are issued (the data is staged at issue),
// and locks/barriers rely purely on their real synchronization. The
// runtime then executes the application with genuine goroutine
// parallelism at hardware speed.
type nativeCost struct {
	epoch time.Time
}

func (*nativeCost) mode() ExecMode { return ModeNative }

func (n *nativeCost) now(t *Thread) float64 { return time.Since(n.epoch).Seconds() }

func (*nativeCost) barrier(t *Thread) {
	t.rt.bar.wait(t.rt, 0, 0)
}

func (*nativeCost) collectiveCost(t *Thread, bytes int) float64 { return 0 }

func (*nativeCost) trySync(t *Thread, h *Handle) bool { return true }

func (*nativeCost) lockAcquired(t *Thread, l *Lock)  {}
func (*nativeCost) lockReleasing(t *Thread, l *Lock) {}

func (n *nativeCost) reset(rt *Runtime) {
	// Thread clocks are never read in native mode; the epoch is the only
	// time state this policy owns.
	n.epoch = time.Now()
}

// newCostModel builds the policy object for a mode.
func newCostModel(mode ExecMode) costModel {
	switch mode {
	case ModeNative:
		return &nativeCost{epoch: time.Now()}
	default:
		return simCost{}
	}
}

// lockMsgBytes is the modelled wire size of a lock protocol message.
const lockMsgBytes = 16
