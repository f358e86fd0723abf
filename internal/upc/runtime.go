// Package upc emulates the UPC (Unified Parallel C) partitioned global
// address space runtime that the paper programs against, with a
// LogGP-style simulated-time cost model (internal/machine). Under
// ModeSimulate the SPMD threads are coroutines driven one at a time by a
// deterministic scheduler loop; under ModeNative they are goroutines
// running in parallel.
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
// cooperative scheduler's baton (only the simulate backend has them).
package upc

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"upcbh/internal/machine"
)

// Runtime is one emulated UPC job: a fixed number of SPMD threads over a
// machine model. A Runtime may execute many Run invocations and sessions,
// one at a time; heaps, locks and scalars created against it persist
// across them.
//
// The execution backend (ExecMode) is fixed at construction: ModeSimulate
// charges every operation against the LogGP machine model, ModeNative
// runs with real parallelism and wall-clock timing only.
type Runtime struct {
	mach *machine.Machine
	n    int
	// cpuFactor caches mach.Compute's threaded-runtime multiplier (1 for
	// process runtimes — multiplying by exactly 1.0 is a bit-exact no-op)
	// so Charge is a single fused multiply-add. The clock ops do not
	// branch on the backend: a native thread's clock is never read (Now
	// reads the epoch) and the native engine charges nothing.
	cpuFactor float64
	// msgCosts is the LogGP message cost of every small wire size, per
	// path class of this machine (msgcost.go); nil in ModeNative.
	msgCosts [machine.PathNetwork + 1][]machine.MsgCost
	nic      []nicState

	// coop is the deterministic virtual-time cooperative scheduler
	// (sched.go); non-nil exactly in ModeSimulate, so it is the backend.
	// Barriers, collectives, locks and spin-waits are its baton-passing
	// segments, and at most one emulated thread executes at any moment.
	coop *sched
	// barMu, barCount and epoch are the native backend's whole
	// synchronization and time state: the arrivals at the current
	// barrier, and the wall clock's zero. Unused in ModeSimulate.
	barMu    sync.Mutex
	barCount int
	epoch    time.Time

	// gates are the per-thread wake channels (capacity 1) of the native
	// backend: a thread parked at the session step gate or in a barrier
	// blocks on its own. Poison wakes every gate (non-blocking sends).
	// Nil in ModeSimulate, whose threads park by yielding to the
	// scheduler loop.
	gates []chan struct{}

	// poisoned is set when a thread panics so that peers blocked in
	// barriers/collectives abort instead of waiting forever; poisonCh is
	// closed at the same time to wake the session controller.
	poisoned atomic.Pointer[string]
	poisonCh chan struct{}

	// session is the active resumable SPMD region, if any (session.go).
	// Written by the controller while no thread is running (before
	// launch, after the last exit), read by threads.
	session *Session

	threads []*Thread
}

// nicState tracks when a target thread's NIC frees up. Only the
// simulate backend reserves NICs, and the cooperative scheduler
// guarantees a single running thread — even during poisoned unwinding —
// so plain fields suffice (baton handoffs order all accesses).
type nicState struct {
	availAt float64
}

// NewRuntime creates a ModeSimulate runtime with mach.Threads SPMD
// threads.
func NewRuntime(mach *machine.Machine) *Runtime {
	return NewRuntimeMode(mach, ModeSimulate)
}

// NewRuntimeMode creates a runtime with mach.Threads SPMD threads using
// the given execution backend.
func NewRuntimeMode(mach *machine.Machine, mode ExecMode) *Runtime {
	n := mach.Threads
	rt := &Runtime{
		mach:      mach,
		n:         n,
		cpuFactor: mach.Compute(1),
		poisonCh:  make(chan struct{}),
	}
	rt.threads = make([]*Thread, n)
	for i := 0; i < n; i++ {
		rt.threads[i] = &Thread{rt: rt, id: i}
	}
	if mode == ModeNative {
		rt.epoch = time.Now()
		rt.gates = make([]chan struct{}, n)
		for i := range rt.gates {
			rt.gates[i] = make(chan struct{}, 1)
		}
	} else {
		rt.nic = make([]nicState, n)
		rt.coop = newSched(rt)
		rt.fillMsgCosts()
	}
	return rt
}

// sim returns the cooperative scheduler for an operation only the
// simulate backend implements. On a native runtime it panics: inside Run
// or a session that poisons the runtime, so peers parked in a barrier
// abort instead of waiting for a rendezvous that cannot happen.
func (rt *Runtime) sim(op string) *sched {
	if rt.coop == nil {
		panic("upc: " + op + " on a ModeNative runtime: heaps, locks, collectives and spin-waits exist only under ModeSimulate")
	}
	return rt.coop
}

// Threads returns the number of UPC threads (the UPC THREADS constant).
func (rt *Runtime) Threads() int { return rt.n }

// Run executes fn once on every thread (SPMD) and blocks until all
// complete. A panic on any thread poisons the runtime — peers blocked in
// barriers or collectives abort immediately instead of deadlocking — and
// the original panic is re-raised on the caller with the thread id and
// stack attached. Run may be called repeatedly; simulated clocks continue
// from where the previous Run left them. Run is a session that is never
// resumed: a NextStep in fn returns false.
//
// In ModeSimulate the threads execute as coroutines under the
// cooperative virtual-time scheduler (sched.go): one at a time, in
// deterministic lowest-clock order, on the caller's goroutine. In
// ModeNative they run as freely scheduled parallel goroutines.
func (rt *Runtime) Run(fn func(t *Thread)) {
	if rt.session != nil {
		panic("upc: Run while a session is active on this runtime")
	}
	rt.Start(fn).Finish()
}

// launch runs body on every thread under the poison-on-panic wrapper
// (guard). Under the cooperative scheduler the threads are coroutines
// and launch returns at the region's first pause; in ModeNative each is
// a goroutine counted on wg.
func (rt *Runtime) launch(body func(t *Thread), wg *sync.WaitGroup, panics chan string) {
	if rt.coop != nil {
		rt.coop.spawn(body, panics)
		return
	}
	for _, t := range rt.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.guard(t, body, panics)
		}()
	}
}

// guard runs body(t) and turns a panic into the runtime's poison: the
// message, with t's stack (or the secondary marker of a peer abort),
// lands on panics.
func (rt *Runtime) guard(t *Thread, body func(t *Thread), panics chan<- string) {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("upc: thread %d panicked: %v\n%s", t.id, r, debug.Stack())
			if _, secondary := r.(poisonAbort); secondary {
				msg = poisonSecondary
			}
			rt.poison(msg)
			panics <- msg
		}
	}()
	body(t)
}

// primaryPanic drains the collected panic messages, preferring the
// original failure over secondary peer-abort markers. Returns "" when
// no thread panicked.
func primaryPanic(panics chan string) string {
	primary := ""
	for {
		select {
		case msg := <-panics:
			if msg != poisonSecondary && (primary == "" || primary == poisonSecondary) {
				primary = msg
			} else if primary == "" {
				primary = msg
			}
		default:
			return primary
		}
	}
}

// poisonAbort is the panic value thrown in threads that were aborted
// because a peer failed first.
type poisonAbort struct{ msg string }

func (p poisonAbort) Error() string { return p.msg }

const poisonSecondary = "upc: thread aborted because a peer thread panicked"

// poison marks the runtime failed and wakes all blocked native waiters:
// the controller through poisonCh, and every gate-parked thread through
// a non-blocking send (a thread already handed a wake keeps it). A
// simulate region has no gates: its scheduler loop unwinds the parked
// threads itself.
func (rt *Runtime) poison(msg string) {
	if rt.poisoned.CompareAndSwap(nil, &msg) {
		close(rt.poisonCh)
	}
	for _, g := range rt.gates {
		wake(g)
	}
}

// wake hands a parked thread its gate's one pending wake, unless it
// already holds one.
func wake(g chan struct{}) {
	select {
	case g <- struct{}{}:
	default:
	}
}

// checkPoison panics with a secondary abort if a peer has failed.
func (rt *Runtime) checkPoison() {
	if rt.poisoned.Load() != nil {
		panic(poisonAbort{poisonSecondary})
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
// thread's own body (its coroutine or goroutine); a Thread owns its
// simulated clock.
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

// Now returns the thread's current time in seconds: the simulated clock
// in ModeSimulate, wall-clock seconds since the runtime epoch in
// ModeNative.
func (t *Thread) Now() float64 {
	if t.rt.coop == nil {
		return time.Since(t.rt.epoch).Seconds()
	}
	return t.clock
}

// Charge accounts a computation cost, inflated by the threaded-runtime
// CPU factor of the machine model. In ModeNative it has no effect on
// time: Now reads the wall clock, never the simulated one.
func (t *Thread) Charge(sec float64) {
	t.clock += sec * t.rt.cpuFactor
}

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

// Barrier is upc_barrier: all threads rendezvous — in ModeNative each
// early arriver parks on its gate until the last one wakes it; in
// ModeSimulate as a scheduler epoch that aligns the simulated clocks to
// max(participants) plus the modelled barrier cost. A native barrier
// aborts (panics with a secondary marker) if the runtime is poisoned.
func (t *Thread) Barrier() {
	t.stats.Barriers++
	rt := t.rt
	if rt.coop != nil {
		rt.coop.barrier(t)
		return
	}
	// Checked before counting, so a late arriver never parks for a
	// rendezvous that cannot happen; poison's wake releases any thread
	// that counted first.
	rt.checkPoison()
	rt.barMu.Lock()
	rt.barCount++
	last := rt.barCount == rt.n
	if last {
		rt.barCount = 0
	}
	rt.barMu.Unlock()
	if !last {
		<-rt.gates[t.id]
		rt.checkPoison()
		return
	}
	// Every peer has counted itself and parks, or is about to, on an
	// empty gate; a poison wake that got there first releases it just as
	// well, so the sends never block.
	for i, g := range rt.gates {
		if i != t.id {
			wake(g)
		}
	}
}
