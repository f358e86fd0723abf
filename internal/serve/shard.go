package serve

import (
	"errors"
	"fmt"
	"sync"
)

// Backpressure sentinels. Explicit rejection instead of blocking is the
// whole point of the bounded queues: a burst against one shard sheds
// load instead of tying up handler goroutines.
var (
	errBusy     = errors.New("serve: shard queue full")
	errDraining = errors.New("serve: server draining")
)

// task is one unit of work executed on a shard loop. fn runs on the
// shard's goroutine with exclusive access to every session owned by the
// shard; done closes when it has run, after which err holds what it
// returned. Other results travel through variables the closure captures —
// the caller reads them only after the shard call returns. Tasks are
// built and awaited only in this file (onShard, internal).
type task struct {
	fn   func() error
	err  error
	done chan struct{}
}

// shard is one worker: a goroutine-owned loop draining a bounded task
// queue. Each session is placed on a shard at admission (Server.admit)
// and every operation on it executes on that shard's loop, so session
// state needs no locks — the shard loop is the session's single writer.
type shard struct {
	id     int
	tasks  chan *task
	stop   chan struct{} // closed by Shutdown after the last submission
	exited chan struct{} // closed by the loop on exit

	// Placement load, guarded by Server.mu: the sessions placed here and
	// not yet released, and the bodies of those holding a live core.Sim.
	sessions, bodies int

	// mu orders submit's enqueue against the loop's exit: the loop sets
	// closed under mu before its final queue drain, so every submit
	// either lands its task before that drain or is rejected — no task
	// can slip into the channel after the loop stops reading it (which
	// would strand the caller on <-t.done forever).
	mu     sync.Mutex
	closed bool
}

func newShard(id, depth int) *shard {
	return &shard{
		id:     id,
		tasks:  make(chan *task, depth),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
}

// run is the shard loop. After stop closes it drains whatever is already
// queued (Shutdown guarantees no further submissions) and exits.
func (sh *shard) run(logf func(string, ...any)) {
	runOne := func(t *task) {
		defer close(t.done)
		defer func() {
			if r := recover(); r != nil {
				// A panicking task (a poisoned simulation session) must
				// not take the shard loop down with it: every other
				// session on the shard would hang. Its caller gets the
				// panic as an error (HTTP 500).
				t.err = fmt.Errorf("serve: shard %d: task panic: %v", sh.id, r)
				logf("%v", t.err)
			}
		}()
		t.err = t.fn()
	}
	for {
		select {
		case t := <-sh.tasks:
			runOne(t)
		case <-sh.stop:
			// Refuse further submits before the final drain: any
			// enqueue serialized before this flag flipped is already in
			// the buffered channel, so the drain below runs it; any
			// after sees closed and gets errDraining.
			sh.mu.Lock()
			sh.closed = true
			sh.mu.Unlock()
			for {
				select {
				case t := <-sh.tasks:
					runOne(t)
				default:
					close(sh.exited)
					return
				}
			}
		}
	}
}

// submit enqueues t without blocking; a full queue is an immediate
// errBusy, never a wait. Once the shard loop has stopped it returns
// errDraining: holding mu across the enqueue guarantees the loop's final
// drain sees every task accepted here.
func (sh *shard) submit(t *task) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return errDraining
	}
	select {
	case sh.tasks <- t:
		return nil
	default:
		return errBusy
	}
}

// onShard is the one way a request reaches session state: it runs fn on
// sess's shard loop and returns fn's error. Admission control comes
// first — draining beats busy, and a full queue is an immediate errBusy
// (counted in Stats) that the HTTP layer turns into a backpressure
// status rather than a blocked handler.
func (s *Server) onShard(sess *session, fn func() error) error {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return errDraining
	}
	t := &task{fn: fn, done: make(chan struct{})}
	if err := sess.shard.submit(t); err != nil {
		s.count(&s.stats.Rejected)
		return err
	}
	<-t.done
	return t.err
}

// internal runs the service's own work (the stream stepper, Shutdown's
// sweep) on the shard loop. Unlike onShard it waits for queue room instead
// of shedding — internal work yields to external requests only through
// queue order — and gives up with errDraining once abort closes (nil:
// never). Every caller finishes before Shutdown stops the loops (steppers
// are waited for; the sweep is Shutdown itself), so the send cannot
// outlive the reader.
func (sh *shard) internal(abort <-chan struct{}, fn func() error) error {
	select {
	case <-abort:
		return errDraining
	default:
	}
	t := &task{fn: fn, done: make(chan struct{})}
	select {
	case sh.tasks <- t:
	case <-abort:
		return errDraining
	}
	<-t.done
	return t.err
}
