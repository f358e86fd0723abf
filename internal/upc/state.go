package upc

import "fmt"

// This file is the checkpoint/restore surface of the runtime: the
// portion of a Runtime's virtual-time state that persists across
// session step boundaries and therefore must survive a checkpoint.
// Everything else the scheduler owns — barrier/collective epochs, lock
// hold state, run queues — is provably quiescent at a completed pause
// (all live threads parked at the step gate, no barrier arrivals
// counted, no locks held), so a restored runtime reproduces it by
// construction and only the state below needs to travel (DESIGN.md
// §12.3).

// ThreadState is one thread's persistent clock and operation counters.
type ThreadState struct {
	Clock float64 `json:"clock"`
	Stats Stats   `json:"stats"`
}

// RuntimeState is the runtime's checkpointable state at a paused step
// gate. internal/core's native team writes the same shape for its
// threads: clocks 0, no NICAvail, zero Sched and StepFirst -1.
type RuntimeState struct {
	Threads []ThreadState `json:"threads"`
	// NICAvail is the per-thread NIC availability time: it carries
	// serialization pressure across step boundaries.
	NICAvail []float64 `json:"nic_avail,omitempty"`
	// Sched is the cooperative-scheduler counter state; byte-exact
	// stepped equivalence includes SchedStats.
	Sched SchedStats `json:"sched"`
	// StepFirst is the thread that held the baton when the pause began:
	// Resume hands it the baton back, so the restored continuation is
	// scheduled exactly as the uninterrupted run's.
	StepFirst int32 `json:"step_first"`
}

// CaptureState snapshots the persistent runtime state. Only valid
// while a session is paused (every live thread parked at the step
// gate) — the moment no thread is running and every clock is final.
func (rt *Runtime) CaptureState() RuntimeState {
	st := RuntimeState{
		Threads:   make([]ThreadState, rt.n),
		NICAvail:  make([]float64, rt.n),
		Sched:     rt.coop.stats,
		StepFirst: -1,
	}
	for i, t := range rt.threads {
		st.Threads[i] = ThreadState{Clock: t.clock, Stats: t.stats}
		st.NICAvail[i] = rt.nic[i].availAt
	}
	if sess := rt.session; sess != nil && len(sess.arrivals) > 0 {
		st.StepFirst = sess.arrivals[0]
	}
	return st
}

// RestoreState overwrites the persistent runtime state with a captured
// snapshot. Only valid while a session is paused; the snapshot must
// come from a runtime of the same thread count.
func (rt *Runtime) RestoreState(st RuntimeState) error {
	if len(st.Threads) != rt.n {
		return fmt.Errorf("upc: restore of %d-thread state into %d-thread runtime", len(st.Threads), rt.n)
	}
	if len(st.NICAvail) != rt.n {
		return fmt.Errorf("upc: restore with %d NIC states, want %d", len(st.NICAvail), rt.n)
	}
	for i, t := range rt.threads {
		t.clock = st.Threads[i].Clock
		t.stats = st.Threads[i].Stats
		rt.nic[i].availAt = st.NICAvail[i]
	}
	rt.coop.stats = st.Sched
	if st.StepFirst >= 0 {
		// The restored pause must resume through the same thread the
		// original pause parked first, not whichever thread parked
		// first during the fresh runtime's setup.
		if sess := rt.session; sess == nil || !sess.firstArrival(st.StepFirst) {
			return fmt.Errorf("upc: restore step-first thread %d is not parked at the gate", st.StepFirst)
		}
	}
	return nil
}

// GrowShard extends thread thr's shard to exactly n allocated elements,
// materializing any missing chunks, without a Thread and without
// charging simulated cost. It exists for the restore path: a
// checkpointed run may have allocated buffers mid-flight (subspace
// buffer growth) that the fresh setup does not reproduce, so restore
// first grows the shard to the captured layout and then writes the
// owned elements. Chunk contents are unspecified until written.
func (h *Heap[T]) GrowShard(thr int, n int32) error {
	sh := &h.shards[thr]
	if n < sh.n {
		return fmt.Errorf("upc: GrowShard to %d elements, shard already holds %d", n, sh.n)
	}
	if n == sh.n {
		return nil
	}
	last := int((n - 1) >> h.shift)
	if last >= maxChunks {
		return fmt.Errorf("upc: GrowShard to %d elements exceeds shard capacity", n)
	}
	h.growTable(sh, last)
	sh.n = n
	return nil
}

// CaptureAvail returns each lock's simulated availability time — the
// only lock state that persists across a completed pause (no lock is
// held at a step boundary, but a contended lock's serialization
// horizon feeds the next acquisition's clock).
func (la *LockArray) CaptureAvail() []float64 {
	out := make([]float64, len(la.locks))
	for i := range la.locks {
		out[i] = la.locks[i].availAt
	}
	return out
}

// RestoreAvail overwrites each lock's availability time.
func (la *LockArray) RestoreAvail(avail []float64) error {
	if len(avail) != len(la.locks) {
		return fmt.Errorf("upc: restore of %d lock states into %d locks", len(avail), len(la.locks))
	}
	for i := range la.locks {
		la.locks[i].availAt = avail[i]
	}
	return nil
}
