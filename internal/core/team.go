package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"upcbh/internal/upc"
)

// region is the fork-join core of the native team and of the
// simulator's force plane (force.go): start runs body(i) for i = 1..k−1
// on a goroutine each, the caller being slot 0, from fork closures built
// once per slot, so a region allocates nothing. A panic under guard
// poisons the region and wakes every gate, and join returns once every
// forked goroutine has, re-raising the first panic: between regions no
// goroutine runs.
type region struct {
	gates    []chan struct{} // capacity 1 each; the owner's wake-ups
	poisoned atomic.Pointer[string]
	body     func(i int)
	fork     []func()
	wg       sync.WaitGroup
}

func (r *region) init(n int) {
	r.gates = make([]chan struct{}, n)
	for i := range r.gates {
		r.gates[i] = make(chan struct{}, 1)
	}
}

// start forks body(i) under guard for every slot i in 1..k−1.
func (r *region) start(k int, body func(i int)) {
	r.body = body
	for i := len(r.fork); i < k; i++ {
		r.fork = append(r.fork, func() {
			defer r.wg.Done()
			r.guard(i, r.body)
		})
	}
	r.wg.Add(k - 1)
	for _, f := range r.fork[1:k] {
		go f()
	}
}

// join waits for the forked goroutines and re-raises the region's poison.
func (r *region) join() {
	r.wg.Wait()
	if p := r.poisoned.Load(); p != nil {
		panic(*p)
	}
}

// guard runs f(id) and turns its panic into the region's poison; a peer's
// abort is not a failure of its own.
func (r *region) guard(id int, f func(int)) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, secondary := rec.(poisonAbort); !secondary {
				r.poison(fmt.Sprintf("upc: thread %d panicked: %v\n%s", id, rec, debug.Stack()))
			}
		}
	}()
	f(id)
}

// poison keeps the first failure and wakes every gate.
func (r *region) poison(msg string) {
	r.poisoned.CompareAndSwap(nil, &msg)
	for _, g := range r.gates {
		wake(g)
	}
}

func (r *region) checkPoison() {
	if r.poisoned.Load() != nil {
		panic(poisonAbort{})
	}
}

// team is the native engine's threads (DESIGN.md §11.1): T members that
// run one fork-join region at a time and meet at barriers inside it —
// SPLASH-2's fork, barrier-separated phases, join. A region starts T−1
// goroutines, runs member 0 on the caller and returns once every member
// has returned, so between regions the team holds no goroutine: what a
// member keeps across regions lives in the engine or the member, never
// on a stack.
type team struct {
	members []member
	epoch   time.Time // Now's zero

	// region runs the team's regions; a poisoned team runs no more.
	// Its gates are the barrier's: an early arriver parks on its own
	// until the last one, counted in mu and count, wakes it.
	region
	mu    sync.Mutex
	count int

	// body is the region in flight; runMember runs member i's share.
	body      func(m *member)
	runMember func(i int)
}

// member is one native thread; its methods run in its share of a region.
type member struct {
	tm    *team
	id    int
	stats upc.Stats // Barriers counts; a container's other counters pass through
}

func newTeam(n int) *team {
	tm := &team{members: make([]member, n), epoch: time.Now()}
	for i := range tm.members {
		tm.members[i].tm, tm.members[i].id = tm, i
	}
	tm.init(n)
	tm.runMember = func(i int) { tm.body(&tm.members[i]) }
	return tm
}

// run is one region: body on every member, returning once all have
// returned. A member's panic poisons the team, so peers parked in a
// barrier abort and so does every peer that reaches one later, and run
// re-raises the first panic on the caller once every member is gone.
func (tm *team) run(body func(m *member)) {
	if tm.poisoned.Load() != nil {
		panic(poisonSecondary)
	}
	tm.body = body
	tm.start(len(tm.members), tm.runMember)
	tm.guard(0, tm.runMember)
	tm.join()
}

// poisonAbort is the panic of a member aborted because a peer failed.
type poisonAbort struct{}

const poisonSecondary = "upc: thread aborted because a peer thread panicked"

// wake hands a parked member its gate's one pending wake, unless it
// already holds one.
func wake(g chan struct{}) {
	select {
	case g <- struct{}{}:
	default:
	}
}

func (tm *team) now() float64 { return time.Since(tm.epoch).Seconds() }

// state is the team's "runtime" object in a container: the counters,
// clocks 0 (a member has no simulated clock), no scheduler or NIC state
// and no step-gate baton.
func (tm *team) state() upc.RuntimeState {
	st := upc.RuntimeState{Threads: make([]upc.ThreadState, len(tm.members)), StepFirst: -1}
	for i, m := range tm.members {
		st.Threads[i].Stats = m.stats
	}
	return st
}

// restoreState takes the counters back from a container's "runtime".
func (tm *team) restoreState(st upc.RuntimeState) error {
	if len(st.Threads) != len(tm.members) {
		return fmt.Errorf("core: restore of %d-thread state into a %d-thread team", len(st.Threads), len(tm.members))
	}
	for i := range tm.members {
		tm.members[i].stats = st.Threads[i].Stats
	}
	return nil
}

func (tm *team) totalStats() (agg upc.Stats) {
	for _, m := range tm.members {
		agg.Add(m.stats)
	}
	return agg
}

func (m *member) ID() int          { return m.id }
func (m *member) Now() float64     { return m.tm.now() } // wall-clock seconds since the team was built
func (m *member) Stats() upc.Stats { return m.stats }

// Barrier is the team's rendezvous: each early arriver parks on its gate
// until the last one wakes it. The poison check comes before counting,
// so a late arriver never parks for a rendezvous that cannot happen;
// poison's wake releases any member that counted first.
func (m *member) Barrier() {
	m.stats.Barriers++
	tm := m.tm
	tm.checkPoison()
	tm.mu.Lock()
	tm.count++
	last := tm.count == len(tm.members)
	if last {
		tm.count = 0
	}
	tm.mu.Unlock()
	if !last {
		<-tm.gates[m.id]
		tm.checkPoison()
		return
	}
	// Every peer has counted itself and parks, or is about to, on an
	// empty gate; a poison wake that got there first releases it just as
	// well, so the sends never block.
	for i, g := range tm.gates {
		if i != m.id {
			wake(g)
		}
	}
}
