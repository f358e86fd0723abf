package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"upcbh/internal/core"
	"upcbh/internal/machine"
)

// createRequest is the POST /sims body. Options (raw core.Options JSON)
// overlays the documented defaults, so a client only names what it
// changes; the machine shorthand fields configure the cluster shape
// without spelling out the full machine model.
type createRequest struct {
	Options  json.RawMessage `json:"options"`
	Threads  int             `json:"threads"`
	PerNode  int             `json:"per_node"`
	Pthreads bool            `json:"pthreads"`
}

// sessionInfo is the JSON shape of a session in responses.
type sessionInfo struct {
	ID        string `json:"id"`
	Key       string `json:"key"`
	Shard     int    `json:"shard"`
	Steps     int    `json:"steps"`
	Done      int    `json:"steps_done"`
	Finished  bool   `json:"finished"`
	CacheHit  bool   `json:"cache_hit"`
	Recovered bool   `json:"recovered,omitempty"` // re-admitted from the store at boot
}

type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP mux (README.md tabulates the API).
// Each route names the status its JSON answer carries (0: the handler
// writes its own response); every failure goes through respond.
func (s *Server) Handler() http.Handler {
	const ok, created = http.StatusOK, http.StatusCreated
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sims", route(created, s.handleCreate))
	mux.HandleFunc("POST /sims/restore", route(created, s.handleRestore))
	mux.HandleFunc("GET /sims", route(ok, s.handleList))
	mux.HandleFunc("GET /sims/{id}", s.sessionRoute(ok, s.handleStatus))
	mux.HandleFunc("POST /sims/{id}/step", s.sessionRoute(0, s.handleStep))
	mux.HandleFunc("POST /sims/{id}/checkpoint", s.sessionRoute(0, s.handleCheckpoint))
	mux.HandleFunc("GET /sims/{id}/snapshot", s.sessionRoute(0, s.handleSnapshot))
	mux.HandleFunc("GET /sims/{id}/stream", s.sessionRoute(0, s.handleStream))
	mux.HandleFunc("GET /sims/{id}/result", s.sessionRoute(ok, s.handleResult))
	mux.HandleFunc("DELETE /sims/{id}", s.sessionRoute(0, s.handleDelete))
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// route adapts a handler that returns its JSON answer, or an error for
// respond to map. A handler that wrote its own response (a snapshot
// frame, a checkpoint container, an NDJSON stream, a bare 204) returns
// nil, nil.
func route(code int, h func(http.ResponseWriter, *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch body, err := h(w, r); {
		case err != nil:
			respond(w, err)
		case body != nil:
			writeJSON(w, code, body)
		}
	}
}

// badRequest is a malformed request — body, options document, query
// parameter. Its text is the whole message.
type badRequest string

func (e badRequest) Error() string { return string(e) }

var errNotFound = errors.New("no such session")

func is(target error) func(error) bool {
	return func(err error) bool { return errors.Is(err, target) }
}

func as[T error](err error) bool {
	var target T
	return errors.As(err, &target)
}

// statusTable is the one place an error becomes an HTTP status: the
// first matching row wins and an error no row claims is ours (500).
var statusTable = []struct {
	match func(error) bool
	code  int
}{
	{as[badRequest], http.StatusBadRequest},
	{is(core.ErrInvalidOptions), http.StatusBadRequest},         // core.New rejected the configuration
	{is(core.ErrBadCheckpoint), http.StatusBadRequest},          // corrupt or crafted container: the uploader's fault
	{as[*http.MaxBytesError], http.StatusRequestEntityTooLarge}, // body over its cap
	{is(errNotFound), http.StatusNotFound},
	{is(errBusy), http.StatusTooManyRequests},        // bounded queue full, retry
	{is(errDraining), http.StatusServiceUnavailable}, // shutting down
	{is(core.ErrReleased), http.StatusGone},          // session torn down
	{is(core.ErrFinished), http.StatusConflict},      // lifecycle forbids the transition
	{is(core.ErrSchedule), http.StatusConflict},
}

func httpStatus(err error) int {
	for _, row := range statusTable {
		if row.match(err) {
			return row.code
		}
	}
	return http.StatusInternalServerError
}

func respond(w http.ResponseWriter, err error) {
	code := httpStatus(err)
	if code == http.StatusTooManyRequests {
		// The queue is bounded and the work is short; a prompt retry is
		// the right client behavior.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// writeJSON answers v as one JSON document and a newline. A snapshot
// is never one: it leaves as a frame (writeFrame).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeFrame answers f's line of the given kind, the same bytes a stream
// sends, and lets go of f. As with writeJSON's encoder, a snapshot json
// refuses (a NaN) leaves the body empty: no part of it is sent.
func writeFrame(w http.ResponseWriter, f *frame, withBodies bool) {
	defer f.release()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if line, err := f.line(withBodies); err == nil {
		_, _ = w.Write(line)
	}
}

// info snapshots a session's status on its shard loop.
func (s *Server) info(sess *session) (si sessionInfo, err error) {
	err = s.onShard(sess, func() error { si = sess.info(); return nil })
	return si, err
}

// handleList enumerates the registry: how a client discovers sessions
// it did not create — in particular, sessions re-admitted by startup
// recovery after a crash (flagged recovered). Each status is captured
// on its session's shard loop; a session whose shard rejects the probe
// (backpressure) is skipped rather than failing the listing.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) (any, error) {
	sessions := s.liveSessions()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].n < sessions[j].n })
	infos := make([]sessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		if si, err := s.info(sess); err == nil {
			infos = append(infos, si)
		}
	}
	return map[string][]sessionInfo{"sessions": infos}, nil
}

// maxCreateBytes caps the POST /sims body: an options document is under
// 1 KiB, so 1 MiB is generous and still keeps a hostile body from
// exhausting memory.
const maxCreateBytes = 1 << 20

// readBody reads a request body of at most limit bytes. An oversized one
// is a *http.MaxBytesError (413) whose message names the cap.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return nil, fmt.Errorf("request body exceeds the %d-byte cap: %w", tooBig.Limit, err)
	} else if err != nil {
		return nil, badRequest("bad request body: " + err.Error())
	}
	return data, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) (any, error) {
	data, err := readBody(w, r, maxCreateBytes)
	if err != nil {
		return nil, err
	}
	var req createRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return nil, badRequest("bad request body: " + err.Error())
	}
	opts, err := buildOptions(req)
	if err != nil {
		return nil, err
	}
	_, si, err := s.admit(s.buildCreate(opts))
	return si, err
}

// buildOptions merges a createRequest onto the CLI defaults: the same
// starting point as bhrun (4096 bodies, 4 threads, subspace level),
// overlaid by the raw options JSON, then the machine shorthands.
func buildOptions(req createRequest) (core.Options, error) {
	threads := req.Threads
	if threads <= 0 {
		threads = 4
	}
	opts := core.DefaultOptions(4096, threads, core.LevelSubspace)
	if len(req.Options) > 0 {
		if err := json.Unmarshal(req.Options, &opts); err != nil {
			return opts, badRequest("bad options: " + err.Error())
		}
	}
	if req.Threads > 0 || req.PerNode > 0 || req.Pthreads {
		perNode := req.PerNode
		if perNode <= 0 {
			perNode = 1
		}
		m, err := machine.New(opts.Machine.Threads, perNode, req.Pthreads, machine.Power5())
		if err != nil {
			return opts, badRequest(err.Error())
		}
		opts.Machine = m
	}
	return opts, nil
}

// sessionRoute is route for the {id} routes: it resolves the session.
func (s *Server) sessionRoute(code int, h func(http.ResponseWriter, *http.Request, *session) (any, error)) http.HandlerFunc {
	return route(code, func(w http.ResponseWriter, r *http.Request) (any, error) {
		id := r.PathValue("id")
		s.mu.Lock()
		sess, ok := s.sessions[id]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %s", errNotFound, id)
		}
		return h(w, r, sess)
	})
}

// positiveQuery parses an optional positive-integer query parameter.
func positiveQuery(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, badRequest(name + " must be a positive integer")
	}
	return n, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, sess *session) (any, error) {
	si, err := s.info(sess)
	return si, err
}

// handleStep advances the session ?k= steps (default 1) and answers the
// resulting snapshot, with bodies only under ?bodies=1.
func (s *Server) handleStep(w http.ResponseWriter, r *http.Request, sess *session) (any, error) {
	k, err := positiveQuery(r, "k", 1)
	if err != nil {
		return nil, err
	}
	wantBodies := r.URL.Query().Get("bodies") != ""
	var f *frame
	err = s.onShard(sess, func() (err error) {
		f, err = s.stepLocked(sess, k, wantBodies)
		return err
	})
	if err != nil {
		return nil, err
	}
	writeFrame(w, f, wantBodies)
	return nil, nil
}

// handleCheckpoint serializes a live session's paused state as one
// checkpoint container (application/octet-stream). The capture runs on
// the session's shard loop — the same serialization domain as stepping,
// so the state is quiescent — into a memory buffer, so a slow client
// never holds the shard. Cache-hit and finished sessions have no live
// paused simulation to capture and answer 409.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, sess *session) (any, error) {
	var (
		buf  bytes.Buffer
		step int
	)
	err := s.onShard(sess, func() error {
		switch {
		case sess.released:
			return core.ErrReleased
		case sess.sim == nil:
			return fmt.Errorf("session %s was served from cache and has no live simulation: %w",
				sess.id, core.ErrFinished)
		}
		step = sess.sim.StepsDone()
		return sess.sim.Checkpoint(&buf)
	})
	if err != nil {
		return nil, err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Checkpoint-Step", strconv.Itoa(step))
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
	return nil, nil
}

// handleRestore creates a session from a checkpoint container uploaded
// as the request body (buildRestore). The body is capped at
// Config.MaxRestoreBytes (-max-restore-bytes; default 1 GiB — a checkpoint
// is dominated by its bodies, a 104-byte record each plus an 8-byte ref
// under simulate, so the default admits far larger simulations than the
// service would ever step while keeping a hostile upload from exhausting
// memory). An oversized upload answers 413.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) (any, error) {
	data, err := readBody(w, r, s.cfg.MaxRestoreBytes)
	if err != nil {
		return nil, err
	}
	_, si, err := s.admit(s.buildRestore(data))
	return si, err
}

// handleSnapshot answers the current state without stepping, with bodies
// only under ?bodies=1.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, sess *session) (any, error) {
	wantBodies := r.URL.Query().Get("bodies") != ""
	var f *frame
	err := s.onShard(sess, func() (err error) {
		f, err = sess.frameLocked(wantBodies)
		return err
	})
	if err != nil {
		return nil, err
	}
	writeFrame(w, f, wantBodies)
	return nil, nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, sess *session) (any, error) {
	var res *core.Result
	err := s.onShard(sess, func() error {
		if sess.released {
			return core.ErrReleased
		}
		// Finish collects the result of whatever has run so far; a partial
		// schedule is a legitimate result but is not memoized. (A no-op on
		// a session that already finished.)
		if err := s.finalizeLocked(sess); err != nil {
			return err
		}
		res = sess.result
		return nil
	})
	return res, err
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, sess *session) (any, error) {
	err := s.onShard(sess, func() error {
		s.releaseLocked(sess)
		return nil
	})
	if err == nil {
		w.WriteHeader(http.StatusNoContent)
	}
	return nil, err
}

// streamWriteTimeout bounds each stream frame's write (tests shorten it).
var streamWriteTimeout = 30 * time.Second

// handleStream serves the NDJSON snapshot stream: subscribe to the
// session's hub, start the (single) stepper if nobody is driving the
// session yet, then relay frames until the hub closes (session
// finished or released) or the client goes away. The first frame is the
// session's current state, so a subscriber always sees where it joined —
// a fresh session streams from step 0, matching bhrun -stream. ?every=
// sets the steps between frames (default 1); ?bodies=1 includes bodies,
// and only then is the first frame's state gathered with them. A
// frame's line is encoded by the first subscriber to reach it, here on
// the handler's goroutine, and shared by the rest (frame.go); each
// writer only copies it to its connection.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, sess *session) (any, error) {
	every, err := positiveQuery(r, "every", 1)
	if err != nil {
		return nil, err
	}
	withBodies := r.URL.Query().Get("bodies") != ""

	// First frame + subscription + stepper start execute as one shard
	// task, so no published snapshot can fall between the current state
	// and the subscription.
	var (
		first *frame
		sub   *subscriber
	)
	err = s.onShard(sess, func() (err error) {
		if first, err = sess.frameLocked(withBodies); err != nil {
			return err
		}
		sub = sess.hub.subscribe(s.cfg.subBuffer, withBodies) // nil if already finished: stream is just the terminal frame
		s.ensureStepperLocked(sess, every)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sub != nil {
		defer sess.hub.unsubscribe(sub)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	rc := http.NewResponseController(w)
	defer rc.SetWriteDeadline(time.Time{}) // the connection may serve another request
	// emit writes f's line and lets go of f. A per-frame write deadline
	// frees this goroutine, its hub slot and its frame from a stalled peer.
	emit := func(f *frame) bool {
		defer f.release()
		line, err := f.line(withBodies)
		if err != nil {
			s.cfg.Logf("session %s: stream frame at step %d: %v", sess.id, f.snap.Step, err)
			return false
		}
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout)) // a writer without deadlines has none to set
		if _, err := w.Write(line); err != nil {
			return false // client went away or stalled; unsubscribe via defer
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return false
		}
		return true
	}
	// Past the first byte a failure cannot change the status: the stream
	// just ends (client gone, hub closed).
	last := first.snap.Step
	if !emit(first) || sub == nil {
		return nil, nil
	}
	for {
		select {
		case f, ok := <-sub.ch:
			if !ok {
				return nil, nil // hub closed: session finished or released
			}
			if f.snap.Step <= last {
				f.release() // stale relative to the first frame we chose
				continue
			}
			last = f.snap.Step
			if !emit(f) {
				return nil, nil
			}
		case <-r.Context().Done():
			return nil, nil
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz is liveness plus the store's durability state: 503 only
// while draining. A degraded store (persistent checkpoint-write
// failures, e.g. a full disk) stays 200 — sessions keep running
// in-memory and the service is still doing useful work — but the body
// flips to "degraded" so operators can alert on lost durability.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	code, body := http.StatusOK, map[string]string{"status": "ok"}
	switch st := s.cfg.Store; {
	case draining:
		code, body["status"] = http.StatusServiceUnavailable, "draining"
	case st != nil && st.Degraded():
		body["status"], body["store"] = "degraded", "degraded"
	case st != nil:
		body["store"] = "ok"
	}
	writeJSON(w, code, body)
}
