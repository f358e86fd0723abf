// Package serve is the multi-tenant simulation service: it exposes the
// steppable session lifecycle of internal/core (create / step / snapshot
// / stream / finish) over HTTP, multiplexing many concurrent sessions
// onto a fixed set of worker shards.
//
// Architecture (DESIGN.md §12.6):
//
//   - Each session is placed at admission on the shard with the least
//     live load — the bodies of its sessions that hold a live core.Sim —
//     and never moves. Each shard is one goroutine-owned loop with a
//     bounded request queue; every operation on a session executes on
//     its shard's loop, so session state is single-writer and lock-free.
//   - Every request reaches session state through one call, onShard; a
//     full shard queue rejects immediately (HTTP 429 with Retry-After)
//     instead of blocking the handler: explicit backpressure.
//   - Every session — created, restored from an upload, or recovered
//     from the store at boot — enters the registry through one path,
//     admit, and every error becomes a status in one table (http.go).
//   - Each session has a fan-out hub: one stepper drives the simulation,
//     N subscribers each consume a private buffered channel of shared,
//     holder-counted frames with a drop-oldest policy for slow consumers;
//     a frame is encoded at most once per kind, by the first subscriber
//     to need it and never on the shard loop.
//   - Completed runs land in a shared bench.Runner cache keyed by
//     Options.Key(): an identical later create is served from cache
//     without re-simulating (the create response carries cache_hit).
//     The cache holds a fixed byte budget, least recently used evicted
//     first, so finished sessions do not accumulate in memory.
//   - Shutdown drains gracefully: admissions stop (503), steppers park,
//     in-flight queued requests finish, and every live session is
//     Finish()ed and Release()d.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"upcbh/internal/bench"
	"upcbh/internal/core"
	"upcbh/internal/hostenv"
	"upcbh/internal/store"
)

// Config sizes the service. Zero values mean defaults.
type Config struct {
	// Shards is the number of worker shards (default: GOMAXPROCS).
	Shards int
	// QueueDepth bounds each shard's request queue (default 64). When a
	// shard's queue is full, requests are rejected with a backpressure
	// status instead of blocking.
	QueueDepth int
	// SubBuffer is the per-subscriber snapshot buffer of the fan-out hub
	// (default 8). A subscriber that falls more than SubBuffer snapshots
	// behind starts losing its oldest frames.
	SubBuffer int
	// StreamEvery is the default stepping interval of the stream
	// endpoint (default 1): the stepper pauses and publishes a snapshot
	// every StreamEvery time-steps.
	StreamEvery int
	// Runner is the shared result cache (and its worker-pool discipline
	// for anything the service runs through it). A fresh one is created
	// when nil.
	Runner *bench.Runner
	// Logf receives progress lines (cache hits, drains, stepper faults);
	// nil silences them.
	Logf func(format string, args ...any)

	// Store is the durable checkpoint store (DESIGN.md §12.5). Nil disables
	// durability: no auto-checkpoints, no startup recovery, and restores
	// never consult disk.
	Store *store.Store
	// CkptEvery auto-checkpoints each live session every time it advances
	// this many steps (0 = disabled).
	CkptEvery int
	// CkptInterval auto-checkpoints a live session when this much
	// wall clock has passed since its last capture. Evaluated at step
	// boundaries — an idle session's state isn't changing, so there is
	// nothing new to capture (0 = disabled).
	CkptInterval time.Duration
	// CkptBackoff is the persister's initial retry backoff, doubling per
	// attempt (default 50ms).
	CkptBackoff time.Duration
	// MaxRestoreBytes caps the POST /sims/restore upload body
	// (default 1 GiB); larger uploads get 413.
	MaxRestoreBytes int64
}

func (c *Config) fillDefaults() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SubBuffer <= 0 {
		c.SubBuffer = 8
	}
	if c.StreamEvery <= 0 {
		c.StreamEvery = 1
	}
	if c.Runner == nil {
		c.Runner = bench.NewRunner(0)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.CkptBackoff <= 0 {
		c.CkptBackoff = 50 * time.Millisecond
	}
	if c.MaxRestoreBytes <= 0 {
		c.MaxRestoreBytes = 1 << 30
	}
}

// session is one live (or completed) simulation owned by a shard. All
// fields below the hub are owned by the shard loop: they are only read
// or written from tasks executing on session.shard.
type session struct {
	id     string // "s-<n>"
	n      uint64 // admission number: orders listings
	key    string
	shard  *shard
	weight int // bodies charged to the shard's load (Server.mu)
	hub    *hub

	opts      core.Options
	cacheHit  bool // born completed from the Options.Key() cache
	recovered bool // re-admitted from the store at boot
	fromStore bool // restore answered from the store, not the upload

	// Shard-loop-owned state.
	sim      *core.Sim    // nil for cache-hit sessions
	result   *core.Result // set once finished
	finished bool
	released bool
	stepping bool // a stream stepper is driving this session

	// Auto-checkpoint cadence (shard-loop-owned).
	lastCkptStep int
	lastCkptTime time.Time
}

// adopt installs a restored simulation as the session's live state.
func (sess *session) adopt(sim *core.Sim) {
	sess.sim = sim
	sess.opts = sim.Options()
	sess.key = sess.opts.Key()
}

// info is the session's status document. Must run on the shard loop.
func (sess *session) info() sessionInfo {
	si := sessionInfo{
		ID:        sess.id,
		Key:       sess.key,
		Shard:     sess.shard.id,
		Steps:     sess.opts.Steps,
		Finished:  sess.finished,
		CacheHit:  sess.cacheHit,
		Recovered: sess.recovered,
		FromStore: sess.fromStore,
	}
	if sess.finished {
		si.Done = sess.opts.Steps
	} else if sess.sim != nil {
		si.Done = sess.sim.StepsDone()
	}
	return si
}

// snapshot is the session's current state: the live simulation's, or —
// for a session born finished from the cache, which has no simulation to
// ask — the terminal snapshot synthesized from its Result. Must run on
// the shard loop.
func (sess *session) snapshot() (*core.Snapshot, error) {
	switch {
	case sess.released:
		return nil, core.ErrReleased
	case sess.sim != nil:
		return sess.sim.Snapshot()
	case sess.result != nil:
		return synthSnapshot(sess.opts, sess.result), nil
	default:
		return nil, core.ErrReleased
	}
}

// Server is the session service. Create with New, expose via Handler,
// stop with Shutdown.
type Server struct {
	cfg    Config
	shards []*shard

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
	draining bool
	drainCh  chan struct{} // closed when draining starts

	steppers sync.WaitGroup

	// Checkpoint persistence pipeline (nil when cfg.Store is nil).
	persistCh   chan store.Entry
	persistDone chan struct{}

	// Counters (mu-guarded; small and cold). stats.Live is filled in by
	// Stats.
	stats       SessionStats
	snapDropped uint64 // fan-out drops of released sessions: keeps SnapshotsDropped monotone
	ckpt        CkptStats
}

// New builds and starts a Server: the shard loops are running on return.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		sessions: make(map[string]*session),
		drainCh:  make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, cfg.QueueDepth)
		s.shards = append(s.shards, sh)
		go sh.run(cfg.Logf)
	}
	if cfg.Store != nil {
		s.persistCh = make(chan store.Entry, persistQueueDepth)
		s.persistDone = make(chan struct{})
		go s.persister()
		// Startup recovery: re-admit every recoverable session before the
		// caller wires up the HTTP listener.
		s.recoverSessions()
	}
	return s
}

// liveSessions copies the registry out from under mu.
func (s *Server) liveSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	return sessions
}

// count bumps one of the mu-guarded counters.
func (s *Server) count(c *uint64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// admission is what admit needs from a create, restore or recovery:
// build gives the session its state on its shard loop, and weight is the
// bodies the session is expected to hold live, charged to its shard at
// placement (0 for a container that is not parsed yet).
type admission struct {
	weight int
	build  func(*session) error
}

// admit is the one way a session enters the registry: it allocates the
// ID, places the session on a shard (placeLocked, charging it a.weight),
// and runs a.build on that shard's loop to give the session its state (a
// cache hit, a fresh core.Sim, a restored one). The sessionInfo is
// captured in the same shard task, so admission is a single submission
// and the response payload cannot be lost to a later backpressure
// rejection. Registration corrects the charge to the bodies the built
// session really holds live (none for a cache hit); a failed admission
// gives it back. err reports admission (backpressure, draining) or build
// (invalid options, bad checkpoint) failures.
func (s *Server) admit(a admission) (*session, sessionInfo, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, sessionInfo{}, errDraining
	}
	s.nextID++
	sess := &session{id: fmt.Sprintf("s-%d", s.nextID), n: s.nextID, hub: newHub()}
	s.placeLocked(sess, a.weight)
	s.mu.Unlock()

	var si sessionInfo
	live := 0
	err := s.onShard(sess, func() error {
		if err := a.build(sess); err != nil {
			return err
		}
		// The checkpoint cadence counts from admission — at the restored
		// step, if any — not from the zero time or step 0.
		sess.lastCkptTime = time.Now()
		if sess.sim != nil {
			sess.lastCkptStep = sess.sim.StepsDone()
			live = sess.opts.Bodies
		}
		si = sess.info()
		return nil
	})
	s.mu.Lock()
	if err == nil {
		// Register atomically with the draining check: Shutdown flips
		// draining under mu before sweeping, so either this session lands
		// in the registry in time for the sweep, or we observe draining
		// here and tear it down below.
		if s.draining {
			err = errDraining
		} else {
			s.sessions[sess.id] = sess
			s.reweighLocked(sess, live)
			s.stats.Created++
			if sess.cacheHit {
				s.stats.CacheHits++
			}
			if sess.recovered {
				s.stats.Recovered++
			}
		}
	}
	if err != nil {
		s.unplaceLocked(sess)
	}
	s.mu.Unlock()
	if err != nil {
		// Unregistered and unreturned, this goroutine is the session's
		// only owner, so the teardown needs no shard task.
		if sess.sim != nil {
			sess.sim.Release()
		}
		sess.hub.close()
		return nil, si, err
	}
	return sess, si, nil
}

// placeLocked puts a new session on the shard with the least live load,
// ties to the lowest id, and charges it weight bodies. Load is bodies,
// not sessions, because a step's cost grows with its session's bodies;
// a session never moves, so a placement is final. Must hold s.mu.
func (s *Server) placeLocked(sess *session, weight int) {
	sh := s.shards[0]
	for _, o := range s.shards[1:] {
		if o.bodies < sh.bodies {
			sh = o
		}
	}
	sess.shard = sh
	sh.sessions++
	s.reweighLocked(sess, weight)
}

// reweighLocked sets the bodies sess charges its shard. Must hold s.mu.
func (s *Server) reweighLocked(sess *session, weight int) {
	sess.shard.bodies += weight - sess.weight
	sess.weight = weight
}

// unplaceLocked gives sess's load back to its shard. Must hold s.mu.
func (s *Server) unplaceLocked(sess *session) {
	s.reweighLocked(sess, 0)
	sess.shard.sessions--
}

// buildCreate is POST /sims: serve the session from the Options.Key()
// cache when an identical run already completed — no simulation is built
// or stepped — and construct the live core.Sim otherwise.
func (s *Server) buildCreate(opts core.Options) admission {
	key := opts.Key()
	return admission{opts.Bodies, func(sess *session) error {
		sess.opts, sess.key = opts, key
		if res, ok := s.cfg.Runner.Lookup(opts); ok {
			sess.cacheHit, sess.finished, sess.result = true, true, res
			sess.hub.close()
			s.cfg.Logf("session %s: cache hit for %s", sess.id, key)
			return nil
		}
		sim, err := core.New(opts)
		sess.sim = sim
		return err
	}}
}

// buildRestore is POST /sims/restore: core.Restore reconstructs the paused
// core.Sim at its captured step, and the session resumes exactly where
// the checkpointed run paused — stepping, streaming, and the final Result
// are byte-identical to the uninterrupted run. Restores never consult the
// result cache: the point of restoring is the live, resumable simulation
// (its completed Result still feeds the cache through the ordinary
// finalize path).
//
// With a store configured the restore is durability-aware in both
// directions: an upload whose (key, step) is already stored is answered
// from the store's validated copy (from_store in the response) — looked
// up here, on the caller's goroutine, so the shard loop never reads the
// disk — and a novel valid upload is persisted asynchronously so a crash
// right after the restore can still recover the session.
//
// The session's weight is unknown until the container is parsed on the
// shard loop, so placement charges it nothing and registration charges
// the restored session's bodies.
func (s *Server) buildRestore(upload []byte) admission {
	st, data, fromStore := s.cfg.Store, upload, false
	var key string
	var step int
	if st != nil {
		if k, n, err := core.PeekCheckpointHeader(upload); err == nil {
			if stored, err := st.Get(k, n); err == nil {
				data, key, step, fromStore = stored, k, n, true
			}
		}
	}
	return admission{0, func(sess *session) error {
		sess.fromStore = fromStore
		sim, err := core.Restore(bytes.NewReader(data))
		if err != nil && sess.fromStore {
			// The store's copy passed format validation but failed the
			// deeper restore checks: quarantine it and fall back to the
			// client's own upload.
			st.Quarantine(key, step)
			sess.fromStore = false
			sim, err = core.Restore(bytes.NewReader(upload))
		}
		if err != nil {
			return err
		}
		sess.adopt(sim)
		if st != nil && !sess.fromStore {
			s.enqueueCkptLocked(store.Entry{Key: sess.key, Step: sim.StepsDone(), Data: upload})
		}
		s.cfg.Logf("session %s: restored at step %d (%s)", sess.id, sim.StepsDone(), sess.key)
		return nil
	}}
}

// finalizeLocked completes a session whose schedule has run out (or a
// cache-hit session's live twin): collects the Result, feeds the shared
// cache, and closes the fan-out hub so every subscriber's stream ends.
// Must run on the session's shard loop. Only a full-schedule result is
// memoized — a partial (drained) run covers fewer steps than the key
// promises and would poison the cache.
func (s *Server) finalizeLocked(sess *session) error {
	if sess.finished || sess.sim == nil {
		return nil
	}
	full := sess.sim.StepsDone() == sess.opts.Steps
	res, err := sess.sim.Finish()
	if err != nil {
		return err
	}
	sess.result = res
	sess.finished = true
	if full {
		s.cfg.Runner.Memoize(sess.opts, res)
	}
	sess.hub.close()
	return nil
}

// stepLocked advances a session k steps and publishes the resulting
// snapshot to its hub; when the schedule completes it finalizes the
// session (feeding the cache). Must run on the session's shard loop.
// The snapshot's cost tracks demand: the full body gather is the
// bulk of a Snapshot, so it runs only when this caller asked
// for bodies or a stream subscriber is listening (subscriptions are
// taken on this shard loop, so the count cannot change under us);
// otherwise the bodies-free SnapshotMeta path serves both the step
// response and the hub publication.
func (s *Server) stepLocked(sess *session, k int, wantBodies bool) (*core.Snapshot, error) {
	if sess.released {
		return nil, core.ErrReleased
	}
	if sess.finished {
		return nil, core.ErrFinished
	}
	if err := sess.sim.Step(k); err != nil {
		return nil, err
	}
	snapshot := sess.sim.SnapshotMeta
	if wantBodies || sess.hub.subscriberCount() > 0 {
		snapshot = sess.sim.Snapshot
	}
	snap, err := snapshot()
	if err != nil {
		return nil, err
	}
	sess.hub.publish(snap)
	if sess.sim.StepsDone() >= sess.opts.Steps {
		if err := s.finalizeLocked(sess); err != nil {
			return nil, err
		}
	} else {
		// Crash safety: capture a durable checkpoint when one is due.
		// Completed runs are skipped — their Result lands in the cache and
		// the store's retention will age their entries out.
		s.maybeAutoCheckpointLocked(sess)
	}
	return snap, nil
}

// ensureStepperLocked starts the session's stream stepper if none is
// driving it yet. One stepper per session, however many stream
// subscribers attach. Must run on the session's shard loop.
func (s *Server) ensureStepperLocked(sess *session, every int) {
	if sess.stepping || sess.finished || sess.released {
		return
	}
	sess.stepping = true
	s.steppers.Add(1)
	go s.stepperLoop(sess, every)
}

// stepperLoop drives one session to completion from a dedicated
// goroutine, one "advance every steps and publish" shard task at a time.
// It stops when the schedule completes, the session is released, a step
// fails, or the server starts draining — Shutdown finishes the session
// instead. The task that observes the end clears sess.stepping on the
// shard loop, so a later stream request can start a fresh stepper (after
// a drain abort the flag no longer matters: the session is released).
func (s *Server) stepperLoop(sess *session, every int) {
	defer s.steppers.Done()
	for more := true; more; {
		err := sess.shard.internal(s.drainCh, func() error {
			more, sess.stepping = false, false
			if sess.released || sess.finished {
				return nil
			}
			k := min(every, sess.opts.Steps-sess.sim.StepsDone())
			if _, err := s.stepLocked(sess, k, false); err != nil {
				return err
			}
			more = !sess.finished
			sess.stepping = more
			return nil
		})
		if err != nil {
			if !errors.Is(err, errDraining) {
				s.cfg.Logf("session %s: stepper stopped: %v", sess.id, err)
			}
			return
		}
	}
}

// releaseLocked tears one session down on its shard loop: Finish
// (collecting whatever steps ran; feeding the cache only on a complete
// schedule), Release, hub close, deregistration. Idempotent per session.
func (s *Server) releaseLocked(sess *session) {
	if !sess.released {
		if sess.sim != nil {
			if err := s.finalizeLocked(sess); err != nil {
				s.cfg.Logf("session %s: finish on release: %v", sess.id, err)
			}
			sess.sim.Release()
		}
		sess.released = true
		sess.hub.close()
	}
	s.mu.Lock()
	if _, ok := s.sessions[sess.id]; ok {
		delete(s.sessions, sess.id)
		s.unplaceLocked(sess)
		s.stats.Released++
		// The hub is closed above, so its drop count is final: fold it
		// into the service-wide counter so Stats stays monotone after
		// the session leaves the registry.
		s.snapDropped += sess.hub.droppedCount()
	}
	s.mu.Unlock()
}

// Shutdown drains the service: new admissions are rejected (503),
// stream steppers stop, requests already queued on every shard finish,
// and every live session is finished and released. It is safe to call
// once; the HTTP server should be shut down after it so closing hubs
// can end the open stream responses.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	close(s.drainCh)
	s.mu.Unlock()

	// Steppers park at their next drain check; their in-flight shard
	// tasks complete first (the shard loops keep running).
	s.steppers.Wait()

	// Per shard: behind everything already queued, tear down the shard's
	// sessions. Admissions are closed, so the registry can only shrink and
	// the queue can only drain.
	for _, sh := range s.shards {
		err := sh.internal(nil, func() error {
			for _, sess := range s.liveSessions() {
				if sess.shard == sh {
					s.releaseLocked(sess)
				}
			}
			return nil
		})
		if err != nil {
			s.cfg.Logf("drain of shard %d: %v", sh.id, err)
		}
	}
	for _, sh := range s.shards {
		close(sh.stop)
	}
	for _, sh := range s.shards {
		<-sh.exited
	}

	// Every shard loop has exited, so no capture can enqueue anymore:
	// close the persistence queue and wait for queued checkpoints to land
	// (bounded: queue depth × retry budget).
	if s.persistCh != nil {
		close(s.persistCh)
		<-s.persistDone
	}
	s.cfg.Logf("drained: %d sessions released", s.Stats().Sessions.Released)
}

// SessionStats summarizes the session registry.
type SessionStats struct {
	Live      int    `json:"live"`
	Created   uint64 `json:"created"`
	CacheHits uint64 `json:"cache_hits"` // creates served from the Options.Key() cache
	Released  uint64 `json:"released"`
	Rejected  uint64 `json:"rejected"`  // requests shed by backpressure
	Recovered uint64 `json:"recovered"` // sessions re-admitted from the store at boot
}

// ShardStats reports one shard's instantaneous load.
type ShardStats struct {
	ID       int `json:"id"`
	Queue    int `json:"queue"`    // requests waiting
	Capacity int `json:"capacity"` // bounded queue depth
	Sessions int `json:"sessions"` // live sessions placed here, admissions in flight included
	Bodies   int `json:"bodies"`   // their bodies held in a live core.Sim: the placement load
}

// Stats is the service-wide observability snapshot (GET /stats).
type Stats struct {
	Sessions         SessionStats      `json:"sessions"`
	Shards           []ShardStats      `json:"shards"`
	Runner           bench.RunnerStats `json:"runner"`
	SnapshotsDropped uint64            `json:"snapshots_dropped"` // fan-out slow-consumer drops
	Draining         bool              `json:"draining"`
	Store            *store.Stats      `json:"store,omitempty"`       // nil without -store
	Checkpoints      *CkptStats        `json:"checkpoints,omitempty"` // nil without -store
	Env              hostenv.Env       `json:"env"`                   // the host stamp reports and checkpoints carry
}

// Stats assembles the observability snapshot. It takes no shard tasks —
// it must answer even when every queue is full.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{Sessions: s.stats, Draining: s.draining, Env: hostenv.Capture()}
	st.Sessions.Live = len(s.sessions)
	ck := s.ckpt
	dropped := s.snapDropped // drops of already-released sessions
	for _, sess := range s.sessions {
		dropped += sess.hub.droppedCount()
	}
	for _, sh := range s.shards {
		st.Shards = append(st.Shards, ShardStats{
			ID:       sh.id,
			Queue:    len(sh.tasks),
			Capacity: cap(sh.tasks),
			Sessions: sh.sessions,
			Bodies:   sh.bodies,
		})
	}
	s.mu.Unlock()
	st.SnapshotsDropped = dropped
	st.Runner = s.cfg.Runner.Stats()
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		st.Store, st.Checkpoints = &ss, &ck
	}
	return st
}

// synthSnapshot fabricates the terminal Snapshot of a completed run from
// its cached Result: cache-hit sessions have no live Sim to ask. Bodies
// are absent — the cache drops them (bench.Runner KeepBodies policy).
func synthSnapshot(opts core.Options, res *core.Result) *core.Snapshot {
	return &core.Snapshot{
		Step:         opts.Steps,
		Steps:        opts.Steps,
		Warmup:       opts.Warmup,
		Level:        res.Level,
		ExecMode:     res.ExecMode,
		Threads:      res.Threads,
		Scenario:     opts.Scenario,
		Time:         float64(opts.Steps) * opts.Dt,
		Clocks:       make([]float64, res.Threads),
		Phases:       res.Phases,
		StepPhases:   res.StepPhases,
		Interactions: res.Interactions,
		Bodies:       res.Bodies,
	}
}
