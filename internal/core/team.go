package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"upcbh/internal/upc"
)

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

	// mu and count are the arrivals at the current barrier; an early
	// arriver parks on its gate (capacity 1) until the last one wakes it.
	mu    sync.Mutex
	count int
	gates []chan struct{}

	// poisoned is the first panic of a region: it wakes every gate and
	// aborts every later barrier, and a poisoned team runs no region.
	poisoned atomic.Pointer[string]

	// body is the region in flight; fork[i] runs member i's share of it on
	// a goroutine of its own. Built once, so a region allocates nothing.
	body func(m *member)
	fork []func()
	wg   sync.WaitGroup
}

// member is one native thread; its methods run in its share of a region.
type member struct {
	tm    *team
	id    int
	stats upc.Stats // Barriers counts; a container's other counters pass through
}

func newTeam(n int) *team {
	tm := &team{members: make([]member, n), epoch: time.Now(), gates: make([]chan struct{}, n), fork: make([]func(), n)}
	for i := range tm.members {
		m := &tm.members[i]
		m.tm, m.id = tm, i
		tm.gates[i] = make(chan struct{}, 1)
		tm.fork[i] = func() {
			defer tm.wg.Done()
			tm.guard(m)
		}
	}
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
	tm.wg.Add(len(tm.members) - 1)
	for _, f := range tm.fork[1:] {
		go f()
	}
	tm.guard(&tm.members[0])
	tm.wg.Wait()
	if p := tm.poisoned.Load(); p != nil {
		panic(*p)
	}
}

// guard runs m's share of the region and turns its panic into the team's
// poison; a peer's abort is not a failure of its own.
func (tm *team) guard(m *member) {
	defer func() {
		if r := recover(); r != nil {
			if _, secondary := r.(poisonAbort); !secondary {
				tm.poison(fmt.Sprintf("upc: thread %d panicked: %v\n%s", m.id, r, debug.Stack()))
			}
		}
	}()
	tm.body(m)
}

// poisonAbort is the panic of a member aborted because a peer failed.
type poisonAbort struct{}

const poisonSecondary = "upc: thread aborted because a peer thread panicked"

// poison keeps the first failure and wakes every gate.
func (tm *team) poison(msg string) {
	tm.poisoned.CompareAndSwap(nil, &msg)
	for _, g := range tm.gates {
		wake(g)
	}
}

// wake hands a parked member its gate's one pending wake, unless it
// already holds one.
func wake(g chan struct{}) {
	select {
	case g <- struct{}{}:
	default:
	}
}

func (tm *team) checkPoison() {
	if tm.poisoned.Load() != nil {
		panic(poisonAbort{})
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
