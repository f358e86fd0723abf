package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"upcbh/internal/core"
	"upcbh/internal/store"
)

// TestErrorStatusTable: every sentinel, bare and wrapped, maps to its
// status through respond — with Retry-After exactly on the retryable 429
// and the error text as the JSON body.
func TestErrorStatusTable(t *testing.T) {
	_, invalidOpts := core.New(core.Options{})
	nativeOpts := testOpts(4)
	nativeOpts.ExecMode, nativeOpts.Level = core.ModeNative, core.LevelBaseline
	_, nativeFloor := core.New(nativeOpts)
	_, badCkpt := core.Restore(strings.NewReader("not a checkpoint"))
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"bad request", badRequest("k must be a positive integer"), http.StatusBadRequest},
		{"invalid options", invalidOpts, http.StatusBadRequest},
		{"invalid options wrapped", fmt.Errorf("create: %w", invalidOpts), http.StatusBadRequest},
		{"native below the cache level", nativeFloor, http.StatusBadRequest},
		{"bad checkpoint", badCkpt, http.StatusBadRequest},
		{"bad checkpoint sentinel", core.ErrBadCheckpoint, http.StatusBadRequest},
		{"body too large", &http.MaxBytesError{Limit: 8}, http.StatusRequestEntityTooLarge},
		{"body too large wrapped", fmt.Errorf("read: %w", &http.MaxBytesError{Limit: 8}), http.StatusRequestEntityTooLarge},
		{"not found", fmt.Errorf("%w: s-9", errNotFound), http.StatusNotFound},
		{"busy", errBusy, http.StatusTooManyRequests},
		{"busy wrapped", fmt.Errorf("step: %w", errBusy), http.StatusTooManyRequests},
		{"draining", errDraining, http.StatusServiceUnavailable},
		{"released", fmt.Errorf("core: Step on a released Sim: %w", core.ErrReleased), http.StatusGone},
		{"finished", fmt.Errorf("core: Step on a finished Sim: %w", core.ErrFinished), http.StatusConflict},
		{"schedule", fmt.Errorf("core: Step(9): %w", core.ErrSchedule), http.StatusConflict},
		{"task panic", errors.New("serve: shard 0: task panic: boom"), http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			respond(rec, tc.err)
			if rec.Code != tc.want {
				t.Fatalf("%v → %d, want %d", tc.err, rec.Code, tc.want)
			}
			if got, want := rec.Header().Get("Retry-After") != "", tc.want == http.StatusTooManyRequests; got != want {
				t.Fatalf("Retry-After present = %v on a %d", got, rec.Code)
			}
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error != tc.err.Error() {
				t.Fatalf("body %q (%v), want error %q", rec.Body.Bytes(), err, tc.err)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("content-type %q", ct)
			}
		})
	}
}

// TestAdmitDrainingRace: Shutdown flipping draining after a session's
// build ran but before its registration must not strand the session —
// whichever of the three builders made it, admit reports errDraining,
// releases the Sim, closes the hub, gives its shard the load back, and
// leaves the registry and the created/recovered counters untouched.
func TestAdmitDrainingRace(t *testing.T) {
	opts := testOpts(4)
	src := New(Config{Shards: 1, Logf: t.Logf})
	sess, _, err := src.admit(src.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	onLoop(t, src, sess, func() {
		if _, err := src.stepLocked(sess, 1, false); err != nil {
			t.Errorf("step: %v", err)
		}
		if err := sess.sim.Checkpoint(&ckpt); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	})
	src.Shutdown()

	for name, builder := range map[string]func(*Server) admission{
		"create":  func(s *Server) admission { return s.buildCreate(opts) },
		"restore": func(s *Server) admission { return s.buildRestore(ckpt.Bytes()) },
		"recover": func(s *Server) admission {
			return s.buildRecovered(store.Entry{Key: opts.Key(), Step: 1, Data: ckpt.Bytes()})
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Shards: 1, Logf: t.Logf})
			a := builder(s)
			var built *session
			_, _, err := s.admit(admission{a.weight, func(sess *session) error {
				err := a.build(sess)
				built = sess
				// Shutdown's first act, frozen before its sweep.
				s.mu.Lock()
				s.draining = true
				s.mu.Unlock()
				return err
			}})
			if !errors.Is(err, errDraining) {
				t.Fatalf("admit = %v, want errDraining", err)
			}
			if built == nil || built.sim == nil {
				t.Fatal("builder produced no live simulation")
			}
			if _, err := built.sim.Snapshot(); !errors.Is(err, core.ErrReleased) {
				t.Fatalf("stranded Sim not released: Snapshot err = %v", err)
			}
			if built.hub.subscribe(1) != nil {
				t.Fatal("stranded session's hub left open")
			}
			if st := s.Stats().Sessions; st.Live != 0 || st.Created != 0 || st.Recovered != 0 {
				t.Fatalf("stranded session counted: %+v", st)
			}
			if sh := s.Stats().Shards[0]; sh.Sessions != 0 || sh.Bodies != 0 {
				t.Fatalf("stranded session still loads its shard: %+v", sh)
			}
			// Thaw the fake drain so the real one stops the loops.
			s.mu.Lock()
			s.draining = false
			s.mu.Unlock()
			s.Shutdown()
		})
	}
}

// TestOnShardPanicUnblocksCaller: a panicking task reports the panic to
// its caller as an error (a 500) instead of stranding it, and the shard
// loop survives to run the next task.
func TestOnShardPanicUnblocksCaller(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	probe := &session{shard: s.shards[0]}
	err := s.onShard(probe, func() error { panic("poisoned session") })
	if err == nil || !strings.Contains(err.Error(), "poisoned session") {
		t.Fatalf("onShard of a panicking task = %v, want the panic as an error", err)
	}
	if code := httpStatus(err); code != http.StatusInternalServerError {
		t.Fatalf("task panic maps to %d, want 500", code)
	}
	ran := false
	if err := s.onShard(probe, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("shard loop dead after a task panic: err=%v ran=%v", err, ran)
	}
}

// TestCreateOversized413: POST /sims reads its body under a cap — a 2 MiB
// document answers 413 naming the cap, and the server keeps serving.
func TestCreateOversized413(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	big := `{"options":{"scenario":"` + strings.Repeat("x", 2<<20) + `"}}`
	resp, err := http.Post(ts.URL+"/sims", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	derr := json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: %d, want 413", resp.StatusCode)
	}
	if derr != nil || !strings.Contains(eb.Error, fmt.Sprint(maxCreateBytes)) {
		t.Fatalf("413 body %+v (%v) should name the %d-byte cap", eb, derr, maxCreateBytes)
	}

	resp, err = http.Post(ts.URL+"/sims", "application/json",
		strings.NewReader(`{"options":{"bodies":256,"steps":2,"warmup":1,"machine":{"threads":2}}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after an oversized one: %d, want 201", resp.StatusCode)
	}
}
