// Package upc emulates the UPC (Unified Parallel C) partitioned global
// address space runtime that the paper programs against, with a
// LogGP-style simulated-time cost model (internal/machine). The SPMD
// threads are coroutines driven one at a time by a deterministic
// scheduler loop. It is the simulator only: the native engine runs on
// internal/core's fork-join team and uses only this package's types
// (Ref, Stats, RuntimeState).
//
// The emulation has two jobs:
//
//  1. Functional: provide the primitives the paper's code uses — SPMD
//     thread launch, a partitioned shared heap addressed by global
//     references, blocking and non-blocking one-sided transfers
//     (upc_memget_ilist / bupc_memget_vlist_async), global locks,
//     barriers, shared scalars with affinity to thread 0, and collectives
//     including vector reduce&broadcast.
//  2. Performance modelling: every operation advances the calling
//     thread's *simulated* clock by the cost the machine model assigns
//     it, and remote messages occupy the target thread's NIC, so
//     hot-spots and lock contention serialize in simulated time the way
//     they do on real PGAS hardware. All reported "times" in the
//     experiment harness are these simulated clocks.
//
// Memory-model note: like UPC's relaxed memory model, concurrent relaxed
// accesses to the same shared location are only meaningful when the
// application synchronizes them (locks, barriers, flag protocols). The
// Barnes-Hut code follows the paper's phase discipline; flags that are
// polled across threads are plain loads and stores, ordered by the
// cooperative scheduler's baton.
package upc

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"upcbh/internal/machine"
)

// Runtime is one emulated UPC job: a fixed number of SPMD threads over a
// machine model, every operation charged against its LogGP cost. A
// Runtime may execute many Run invocations and sessions, one at a time;
// heaps, locks and scalars created against it persist across them.
type Runtime struct {
	mach *machine.Machine
	n    int
	// cpuFactor caches mach.Compute's threaded-runtime multiplier (1 for
	// process runtimes — multiplying by exactly 1.0 is a bit-exact no-op)
	// so Charge is a single fused multiply-add.
	cpuFactor float64
	// msgCosts is the LogGP message cost of every small wire size, per
	// path class of this machine (msgcost.go).
	msgCosts [machine.PathNetwork + 1][]machine.MsgCost
	nic      []nicState

	// coop is the deterministic virtual-time cooperative scheduler
	// (sched.go). Barriers, collectives, locks and spin-waits are its
	// baton-passing segments, and at most one emulated thread executes at
	// any moment.
	coop *sched

	// poisoned is the first failure of a region: a thread's panic or the
	// scheduler's deadlock report. Peers blocked in barriers or
	// collectives abort instead of waiting forever, and no later region
	// runs.
	poisoned atomic.Pointer[string]

	// session is the active resumable SPMD region, if any (session.go).
	// Written by the controller while no thread is running (before
	// launch, after the last exit), read by threads.
	session *Session

	threads []*Thread
}

// nicState tracks when a target thread's NIC frees up. The cooperative
// scheduler guarantees a single running thread — even during poisoned
// unwinding — so plain fields suffice (baton handoffs order all
// accesses).
type nicState struct {
	availAt float64
}

// NewRuntime creates a runtime with mach.Threads SPMD threads.
func NewRuntime(mach *machine.Machine) *Runtime {
	n := mach.Threads
	rt := &Runtime{
		mach:      mach,
		n:         n,
		cpuFactor: mach.Compute(1),
		nic:       make([]nicState, n),
	}
	rt.threads = make([]*Thread, n)
	for i := 0; i < n; i++ {
		rt.threads[i] = &Thread{rt: rt, id: i}
	}
	rt.coop = newSched(rt)
	rt.fillMsgCosts()
	return rt
}

// NewRuntimeMode is NewRuntime for mode, which must be ModeSimulate:
// native execution runs on internal/core's fork-join team, not on a
// Runtime.
func NewRuntimeMode(mach *machine.Machine, mode ExecMode) *Runtime {
	if mode != ModeSimulate {
		panic(fmt.Sprintf("upc: NewRuntimeMode(%v): a Runtime only simulates; native threads run on internal/core's team", mode))
	}
	return NewRuntime(mach)
}

// Threads returns the number of UPC threads (the UPC THREADS constant).
func (rt *Runtime) Threads() int { return rt.n }

// Run executes fn once on every thread (SPMD) and blocks until all
// complete. The threads execute as coroutines under the cooperative
// virtual-time scheduler (sched.go): one at a time, in deterministic
// lowest-clock order, on the caller's goroutine. A panic on any thread
// poisons the runtime — peers blocked in barriers or collectives abort
// immediately instead of deadlocking — and the original panic is
// re-raised on the caller with the thread id and stack attached. Run may
// be called repeatedly; simulated clocks continue from where the
// previous Run left them. Run is a session that is never resumed: a
// NextStep in fn returns false.
func (rt *Runtime) Run(fn func(t *Thread)) {
	if rt.session != nil {
		panic("upc: Run while a session is active on this runtime")
	}
	rt.Start(fn).Finish()
}

// guard runs body(t) and turns its panic, with t's stack, into the
// runtime's poison; a peer's abort is not a failure of its own.
func (rt *Runtime) guard(t *Thread, body func(t *Thread)) {
	defer func() {
		if r := recover(); r != nil {
			if _, secondary := r.(poisonAbort); !secondary {
				rt.poison(fmt.Sprintf("upc: thread %d panicked: %v\n%s", t.id, r, debug.Stack()))
			}
		}
	}()
	body(t)
}

// poisonAbort is the panic of a thread aborted because a peer failed.
type poisonAbort struct{}

const poisonSecondary = "upc: thread aborted because a peer thread panicked"

// poison marks the runtime failed. Only the first failure is kept: one
// thread runs at a time, so it is the primary one, and every later
// poison is a peer aborting because of it. The region's scheduler loop
// unwinds the parked threads itself.
func (rt *Runtime) poison(msg string) {
	rt.poisoned.CompareAndSwap(nil, &msg)
}

// checkPoison panics with a secondary abort if a peer has failed.
func (rt *Runtime) checkPoison() {
	if rt.poisoned.Load() != nil {
		panic(poisonAbort{})
	}
}

// nicReserve serializes a message arriving at target's NIC at time
// `arrive`, occupying it for `busy`: it returns the time service starts.
// It runs once per modelled remote access, so it must stay a handful of
// plain float operations.
func (rt *Runtime) nicReserve(target int, arrive, busy float64) float64 {
	n := &rt.nic[target]
	start := n.availAt
	if arrive > start {
		start = arrive
	}
	n.availAt = start + busy
	return start
}

// Thread is one emulated UPC thread. All methods must be called from the
// thread's own body (its coroutine); a Thread owns its simulated clock.
type Thread struct {
	rt    *Runtime
	id    int
	clock float64
	stats Stats
	// steps counts the session steps this thread has taken (session.go).
	steps int64

	// gatherGroups is the per-source grouping scratch of
	// GatherAsyncBytes, retained so steady-state gathers allocate
	// nothing. Owned by the thread.
	gatherGroups []gatherGroup

	// red is the thread's deposit in the reduction in flight (coll.go's
	// allReduce), which the resolver reads and overwrites with the
	// result; red1 backs AllReduceF64's one-element vector.
	red  []float64
	red1 [1]float64
}

// gatherGroup is one source thread's share of an aggregated gather.
type gatherGroup struct {
	thr   int32
	count int32
}

// ID returns the UPC MYTHREAD value.
func (t *Thread) ID() int { return t.id }

// P returns the UPC THREADS value.
func (t *Thread) P() int { return t.rt.n }

// Now returns the thread's simulated clock in seconds.
func (t *Thread) Now() float64 { return t.clock }

// Charge accounts a computation cost, inflated by the threaded-runtime
// CPU factor of the machine model.
func (t *Thread) Charge(sec float64) {
	t.clock = charged(t.clock, sec, t.rt.cpuFactor)
}

// charged is Charge's arithmetic, which Apply's runs of charges share.
func charged(clock, sec, factor float64) float64 { return clock + sec*factor }

// ChargeRaw accounts exactly sec of already-modelled cost.
func (t *Thread) ChargeRaw(sec float64) {
	t.clock += sec
}

// AdvanceTo aligns the clock to a modelled completion event (e.g. a
// producer's flag-set time observed by a spin-waiting consumer).
func (t *Thread) AdvanceTo(when float64) {
	if when > t.clock {
		t.clock = when
	}
}

// Stats returns a copy of this thread's operation counters.
func (t *Thread) Stats() Stats { return t.stats }

// BarrierCount returns how many barriers this thread has passed; cheap
// epoch source for barrier-invalidated caches.
func (t *Thread) BarrierCount() uint64 { return t.stats.Barriers }

// Barrier is upc_barrier: all threads rendezvous as a scheduler epoch
// that aligns the simulated clocks to max(participants) plus the
// modelled barrier cost.
func (t *Thread) Barrier() {
	t.stats.Barriers++
	t.rt.coop.barrier(t)
}
