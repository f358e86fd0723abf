package serve

import (
	"bytes"
	"errors"
	"sync"
	"syscall"
	"time"

	"upcbh/internal/core"
	"upcbh/internal/store"
)

// Crash safety (DESIGN.md §12.6): periodic auto-checkpoints of live
// sessions into the durable store, and startup recovery from it.
//
// The split that keeps stepping off the disk: *capture* runs on the
// session's shard loop (the only place the paused Sim may be read) into
// a memory buffer — cheap, bounded, no I/O — while *persistence* runs
// on one dedicated persister goroutine that drains a bounded queue.
// A slow or failing disk therefore backlogs the persister, never the
// stepper: when the queue is full the capture is dropped (counted),
// the session keeps running in-memory, and the next due tick recaptures
// fresher state anyway.
//
// Persistence failures follow the transient/persistent split: transient
// errors (EIO and friends) get bounded retries with exponential
// backoff; ENOSPC — retrying onto a full disk is noise — and exhausted
// retries mark the store degraded (visible in /stats and /healthz) and
// drop the capture. The next successful Put heals the store.

// CkptStats counts the auto-checkpoint pipeline (GET /stats).
type CkptStats struct {
	// Captured checkpoints were serialized on a shard loop.
	Captured uint64 `json:"captured"`
	// Persisted made it durably into the store.
	Persisted uint64 `json:"persisted"`
	// Dropped were discarded because the persister queue was full —
	// stepping never waits for disk.
	Dropped uint64 `json:"dropped"`
	// Failed exhausted the retry budget (or hit ENOSPC); the store is
	// degraded until a later write succeeds.
	Failed uint64 `json:"failed"`
	// Retries counts individual retry attempts after transient errors.
	Retries uint64 `json:"retries"`
}

// persistQueueDepth bounds captures awaiting persistence. Deep enough
// to ride out a transient disk stall across many sessions, small
// enough that a dead disk cannot accumulate unbounded snapshots.
const persistQueueDepth = 16

// persistRetries bounds the persister's retries after a transient write
// failure (ENOSPC never retries).
const persistRetries = 3

// ckptJob is one container on its way to the store. buf, when set, is the
// ckptBufs buffer Data lies in: done hands it back once the container is
// written or dropped (store.Put keeps no reference). An upload's container
// is the request's own bytes and has none.
type ckptJob struct {
	store.Entry
	buf *bytes.Buffer
}

// ckptBufs recycles the auto-checkpoint captures' buffers, so a capture
// every few steps reuses a container-sized buffer instead of making one.
var ckptBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// done hands the job's buffer back.
func (j ckptJob) done() {
	if j.buf != nil {
		j.buf.Reset()
		ckptBufs.Put(j.buf)
	}
}

// maybeAutoCheckpointLocked captures the session's paused state when a
// checkpoint is due — every CkptEvery steps and/or every CkptInterval
// of wall clock, whichever fires first. Must run on the session's shard
// loop with the session live and unfinished.
func (s *Server) maybeAutoCheckpointLocked(sess *session) {
	if s.cfg.Store == nil || sess.sim == nil || sess.finished || sess.released {
		return
	}
	every, interval := s.cfg.CkptEvery, s.cfg.CkptInterval
	if every <= 0 && interval <= 0 {
		return
	}
	done := sess.sim.StepsDone()
	due := (every > 0 && done-sess.lastCkptStep >= every) ||
		(interval > 0 && time.Since(sess.lastCkptTime) >= interval)
	if !due {
		return
	}
	// Advance the cadence before knowing the outcome: a capture or
	// enqueue failure must not turn into a capture attempt on every
	// subsequent step.
	sess.lastCkptStep = done
	sess.lastCkptTime = time.Now()
	j := ckptJob{Entry: store.Entry{Key: sess.key, Step: done}, buf: ckptBufs.Get().(*bytes.Buffer)}
	if err := sess.sim.Checkpoint(j.buf); err != nil {
		j.done()
		s.cfg.Logf("session %s: auto-checkpoint capture at step %d: %v", sess.id, done, err)
		return
	}
	j.Data = j.buf.Bytes()
	s.enqueueCkptLocked(j)
}

// enqueueCkptLocked hands a captured container to the persister without
// blocking: a full queue drops the capture (the stepper's latency is
// sacrosanct; durability degrades by one checkpoint interval). Must run
// on a shard loop — Shutdown closes the queue only after every shard
// loop has exited, so a send from a shard task can never hit a closed
// channel.
func (s *Server) enqueueCkptLocked(j ckptJob) {
	s.count(&s.ckpt.Captured)
	select {
	case s.persistCh <- j:
	default:
		j.done()
		s.count(&s.ckpt.Dropped)
		s.cfg.Logf("checkpoint persister backlogged: dropped step-%d capture of %s", j.Step, j.Key)
	}
}

// persister is the single off-shard writer: it drains captured
// containers into the store until Shutdown closes the queue.
func (s *Server) persister() {
	defer close(s.persistDone)
	for j := range s.persistCh {
		s.persistOne(j.Entry)
		j.done()
	}
}

// persistOne writes one container with the transient/persistent retry
// policy. Only this goroutine runs it, so backoff sleeps stall at most
// the checkpoint pipeline — never a session.
func (s *Server) persistOne(j store.Entry) {
	backoff := s.cfg.ckptBackoff
	var err error
	for attempt := 0; ; attempt++ {
		err = s.cfg.Store.Put(j.Key, j.Step, j.Data)
		if err == nil {
			s.count(&s.ckpt.Persisted)
			return
		}
		if errors.Is(err, syscall.ENOSPC) || attempt >= persistRetries {
			break
		}
		s.count(&s.ckpt.Retries)
		time.Sleep(backoff)
		backoff *= 2
	}
	s.count(&s.ckpt.Failed)
	s.cfg.Store.SetDegraded(err)
	s.cfg.Logf("checkpoint persist for %s step %d failed permanently: %v (store degraded; sessions continue in-memory)",
		j.Key, j.Step, err)
}

// recoverSessions re-admits every recoverable session from the store at
// boot: each key's newest valid container is restored into a live,
// paused session ready to step/stream/finish exactly where the crashed
// process left it. Runs from New before the listener exists and admits
// one session at a time, so no shard queue holds more than one task and
// backpressure cannot reject a recovery; each recovered session is
// placed by the usual rule, on loads its predecessors' registrations
// already corrected to their restored bodies.
func (s *Server) recoverSessions() {
	for _, e := range s.cfg.Store.NewestAll() {
		if _, _, err := s.admit(s.buildRecovered(e)); err != nil {
			s.cfg.Logf("recovery: %q not recovered: %v", e.Key, err)
		}
	}
}

// buildRecovered restores one stored entry. A container that passes the
// store's format validation but fails core.Restore's deeper checks is
// quarantined and the key's next-newest entry tried — recovery never
// aborts on one bad entry.
func (s *Server) buildRecovered(e store.Entry) admission {
	return admission{0, func(sess *session) error {
		for {
			sim, err := core.Restore(bytes.NewReader(e.Data))
			if err == nil {
				sess.adopt(sim)
				sess.recovered = true
				s.cfg.Logf("session %s: recovered from store at step %d of %d (%s)",
					sess.id, sim.StepsDone(), sess.opts.Steps, sess.key)
				return nil
			}
			s.cfg.Logf("recovery: restore %q step %d: %v (quarantining)", e.Key, e.Step, err)
			s.cfg.Store.Quarantine(e.Key, e.Step)
			data, step, nerr := s.cfg.Store.Newest(e.Key)
			if nerr != nil {
				return err
			}
			e.Data, e.Step = data, step
		}
	}}
}
