package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"upcbh/internal/core"
	"upcbh/internal/durable"
	"upcbh/internal/store"
)

func openTestStore(t *testing.T, dir string, fs durable.FS) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{FS: fs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// stepOne advances a session one step on its shard loop.
func stepOne(t *testing.T, s *Server, sess *session) {
	t.Helper()
	var stepErr error
	onLoop(t, s, sess, func() { _, stepErr = s.stepLocked(sess, 1, false) })
	if stepErr != nil {
		t.Fatal(stepErr)
	}
}

// waitFor polls cond until it holds or the deadline expires — the
// persistence pipeline is asynchronous by design, so tests observe it
// converging rather than assuming when.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// noTmpFiles asserts the store directory holds no orphaned temp files.
func noTmpFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("orphaned temp file %s in store", e.Name())
		}
	}
}

// TestAutoCheckpointEveryK: with -ckpt-every 2, a stepped session lands
// durable checkpoints at steps 2 and 4 but not at its final step (the
// completed Result goes to the cache instead), and the newest entry
// restores to a live sim at the captured step.
func TestAutoCheckpointEveryK(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	s := newTestServer(t, Config{Shards: 2, Store: st, CkptEvery: 2})
	opts := testOpts(6)
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		stepOne(t, s, sess)
	}
	key := opts.Key()
	// The persister writes in capture order, so step 4 landing implies
	// step 2 landed (or was GC'd, which Keep=2 forbids here).
	waitFor(t, "step-4 checkpoint", func() bool { return st.Has(key, 4) })
	if !st.Has(key, 2) {
		t.Fatal("step-2 checkpoint missing")
	}
	if st.Has(key, 6) {
		t.Fatal("auto-checkpoint captured the final step")
	}

	data, step, err := st.Newest(key)
	if err != nil || step != 4 {
		t.Fatalf("Newest = step %d, %v; want 4", step, err)
	}
	sim, err := core.Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if sim.StepsDone() != 4 {
		t.Fatalf("restored sim at step %d, want 4", sim.StepsDone())
	}
	sim.Release()

	if ck := s.Stats().Checkpoints; ck == nil || ck.Captured < 2 || ck.Persisted < 2 {
		t.Fatalf("checkpoint stats = %+v", ck)
	}
	noTmpFiles(t, dir)
}

// TestAutoCheckpointInterval: the wall-clock cadence fires at step
// boundaries once the interval has elapsed since the last capture.
func TestAutoCheckpointInterval(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	s := newTestServer(t, Config{Shards: 1, Store: st, CkptInterval: time.Millisecond})
	opts := testOpts(4)
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the interval elapse
	stepOne(t, s, sess)
	waitFor(t, "interval checkpoint", func() bool { return st.Has(opts.Key(), 1) })
}

// blockFS stalls every Create until released: the "disk has hung"
// fault. Only the persister goroutine ever touches it, so a stalled
// store must not stall stepping.
type blockFS struct {
	durable.FS
	gate    chan struct{}
	release sync.Once
}

func newBlockFS() *blockFS {
	return &blockFS{FS: durable.OSFS, gate: make(chan struct{})}
}

func (b *blockFS) open() { b.release.Do(func() { close(b.gate) }) }
func (b *blockFS) Create(path string) (durable.File, error) {
	<-b.gate
	return b.FS.Create(path)
}

// TestAutoCheckpointNeverBlocksStepper: with the persister wedged on a
// hung disk, every step still completes promptly; overflow captures are
// dropped (counted), not queued unboundedly, and nothing deadlocks at
// shutdown once the disk recovers.
func TestAutoCheckpointNeverBlocksStepper(t *testing.T) {
	bfs := newBlockFS()
	st := openTestStore(t, t.TempDir(), bfs)
	s := newTestServer(t, Config{Shards: 1, Store: st, CkptEvery: 1})
	// Unblock the disk before the server's Shutdown cleanup runs
	// (cleanups are LIFO), or Shutdown would wait on the wedged persister.
	t.Cleanup(bfs.open)

	opts := testOpts(30)
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 29; i++ { // stop short of finishing: every step captures
		stepOne(t, s, sess)
	}
	elapsed := time.Since(start)
	// 29 captures against a queue of 16 with a wedged persister: at least
	// one capture must have been dropped rather than waited for.
	s.mu.Lock()
	ck := s.ckpt
	s.mu.Unlock()
	if ck.Captured < 29 {
		t.Fatalf("captured %d, want 29", ck.Captured)
	}
	if ck.Dropped == 0 {
		t.Fatalf("no drops with a wedged persister (stats %+v, %v elapsed)", ck, elapsed)
	}
	if ck.Persisted != 0 {
		t.Fatalf("persisted %d through a wedged disk", ck.Persisted)
	}
}

// enospcFS fails every file write with ENOSPC while full is set.
type enospcFS struct {
	durable.FS
	mu   sync.Mutex
	full bool
}

func (e *enospcFS) setFull(v bool) {
	e.mu.Lock()
	e.full = v
	e.mu.Unlock()
}

func (e *enospcFS) Create(path string) (durable.File, error) {
	e.mu.Lock()
	full := e.full
	e.mu.Unlock()
	if full {
		return nil, &os.PathError{Op: "create", Path: path, Err: syscall.ENOSPC}
	}
	return e.FS.Create(path)
}

// TestAutoCheckpointDegradedENOSPC: a full disk degrades the store —
// sessions keep stepping, /healthz and /stats surface it — and the
// first successful persist after space frees heals it.
func TestAutoCheckpointDegradedENOSPC(t *testing.T) {
	efs := &enospcFS{FS: durable.OSFS}
	st := openTestStore(t, t.TempDir(), efs)
	s := newTestServer(t, Config{
		Shards: 1, Store: st, CkptEvery: 1,
		CkptBackoff: time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	efs.setFull(true)
	opts := testOpts(40)
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	stepOne(t, s, sess) // capture at step 1 fails against the full disk
	waitFor(t, "store degraded", st.Degraded)

	// Stepping continues through the degradation.
	stepOne(t, s, sess)

	stats := s.Stats()
	if stats.Store == nil || !stats.Store.Degraded {
		t.Fatalf("stats.Store = %+v, want degraded", stats.Store)
	}
	if stats.Checkpoints.Failed == 0 {
		t.Fatalf("checkpoint stats = %+v, want failures", stats.Checkpoints)
	}
	var health map[string]string
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "degraded" || health["store"] != "degraded" {
		t.Fatalf("healthz while degraded: %d %v", resp.StatusCode, health)
	}

	// Space frees: the next due capture persists and heals the store.
	efs.setFull(false)
	for i := 0; i < 5 && st.Degraded(); i++ {
		stepOne(t, s, sess)
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, "store healed", func() bool { return !st.Degraded() })
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["store"] != "ok" {
		t.Fatalf("healthz after heal: %v", health)
	}
}

// TestAutoCheckpointLifecycleRaces: sessions being stepped, streamed,
// released, and auto-checkpointed concurrently — a checkpoint tick on a
// finishing, draining, or released session must be a clean no-op. Run
// under -race (the CI durability lane adds -cpu 2,4); the assertions
// here are "no panic, no orphaned temp file, registry consistent".
func TestAutoCheckpointLifecycleRaces(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	s := newTestServer(t, Config{Shards: 2, Store: st, CkptEvery: 1, CkptInterval: time.Millisecond})

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		opts := testOpts(12)
		opts.Warmup = 1 + i%2 // distinct keys so sessions don't cache-hit
		sess, _, err := s.admit(s.buildCreate(opts))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		// Stepper: drive toward completion, tolerating lifecycle errors —
		// the releaser races it on purpose.
		go func(sess *session) {
			defer wg.Done()
			for j := 0; j < 12; j++ {
				err := s.onShard(sess, func() error {
					_, _ = s.stepLocked(sess, 1, false)
					return nil
				})
				if err != nil {
					return
				}
			}
		}(sess)
		// Releaser: tear the session down mid-flight; ticks after this
		// must no-op.
		go func(sess *session, delay time.Duration) {
			defer wg.Done()
			time.Sleep(delay)
			err := s.onShard(sess, func() error {
				s.releaseLocked(sess)
				return nil
			})
			if err != nil {
				return
			}
			// A tick on the released session is a clean no-op.
			_ = s.onShard(sess, func() error {
				s.maybeAutoCheckpointLocked(sess)
				return nil
			})
		}(sess, time.Duration(i)*2*time.Millisecond)
	}
	wg.Wait()
	s.Shutdown() // drain persister before inspecting the directory
	noTmpFiles(t, dir)
}

// TestStartupRecovery: a second server opened on the first server's
// store re-admits its unfinished session at the newest checkpoint, and
// finishing the recovered session yields a result byte-identical to an
// uninterrupted run — the crash-consistency contract, minus the crash
// (the CI kill-9 e2e supplies the real SIGKILL).
func TestStartupRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(6)
	key := opts.Key()

	st1 := openTestStore(t, dir, nil)
	s1 := New(Config{Shards: 2, Store: st1, CkptEvery: 2, Logf: t.Logf})
	sess, _, err := s1.admit(s1.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		stepOne(t, s1, sess)
	}
	waitFor(t, "step-4 checkpoint", func() bool { return st1.Has(key, 4) })
	s1.Shutdown()

	// "Restart": a fresh store handle and server over the same directory.
	st2 := openTestStore(t, dir, nil)
	s2 := newTestServer(t, Config{Shards: 2, Store: st2, CkptEvery: 2})
	if got := s2.Stats().Sessions.Recovered; got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	s2.mu.Lock()
	var rec *session
	for _, sess := range s2.sessions {
		rec = sess
	}
	s2.mu.Unlock()
	if rec == nil {
		t.Fatal("recovered session not in registry")
	}
	si, err := s2.info(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !si.Recovered || si.Done != 4 || si.Key != key || si.Finished {
		t.Fatalf("recovered session info = %+v", si)
	}

	// Finish the recovered session and compare against an uninterrupted
	// reference run.
	for i := 0; i < 2; i++ {
		stepOne(t, s2, rec)
	}
	var res *core.Result
	onLoop(t, s2, rec, func() { res = rec.result })
	if res == nil {
		t.Fatal("recovered session did not finalize")
	}

	refSim, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	refSim.Release()
	got, _ := json.Marshal(res)
	want, _ := json.Marshal(ref)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result diverged:\n got %s\nwant %s", got, want)
	}
}

// TestRecoverySkipsCorruptNewest: a torn newest entry is quarantined at
// recovery and the session comes back from the older valid checkpoint.
func TestRecoverySkipsCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(8)
	key := opts.Key()

	st1 := openTestStore(t, dir, nil)
	s1 := New(Config{Shards: 1, Store: st1, CkptEvery: 2, Logf: t.Logf})
	sess, _, err := s1.admit(s1.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		stepOne(t, s1, sess)
	}
	waitFor(t, "step-4 checkpoint", func() bool { return st1.Has(key, 4) })
	s1.Shutdown()

	// Corrupt the newest entry the way a torn disk would: truncate it.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), "-0000000004.ckpt") {
			newest = dir + "/" + e.Name()
		}
	}
	if newest == "" {
		t.Fatal("step-4 entry not on disk")
	}
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, nil)
	s2 := newTestServer(t, Config{Shards: 1, Store: st2, CkptEvery: 2})
	if got := s2.Stats().Sessions.Recovered; got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	s2.mu.Lock()
	var rec *session
	for _, sess := range s2.sessions {
		rec = sess
	}
	s2.mu.Unlock()
	if si, err := s2.info(rec); err != nil || si.Done != 2 {
		t.Fatalf("recovered at step %d (%v), want 2 from the older entry", si.Done, err)
	}
	if st2.Stats().Quarantined == 0 {
		t.Fatal("torn entry was not quarantined")
	}
}

// TestRestoreAnswersFromStore: POST /sims/restore of a container whose
// (key, step) is already durably stored answers from the store
// (from_store), while a novel upload restores from the body and is then
// persisted so it too survives a crash.
func TestRestoreAnswersFromStore(t *testing.T) {
	st := openTestStore(t, t.TempDir(), nil)
	s := newTestServer(t, Config{Shards: 2, Store: st, CkptEvery: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	opts := testOpts(8)
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	key := opts.Key()
	stepOne(t, s, sess)
	stepOne(t, s, sess) // auto-checkpoint at step 2
	waitFor(t, "step-2 checkpoint", func() bool { return st.Has(key, 2) })

	capture := func() []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/sims/"+sess.id+"/checkpoint", "application/octet-stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("checkpoint: %d %v", resp.StatusCode, err)
		}
		return raw
	}
	restore := func(body []byte) sessionInfo {
		t.Helper()
		resp, err := http.Post(ts.URL+"/sims/restore", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ri sessionInfo
		if err := json.NewDecoder(resp.Body).Decode(&ri); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("restore: %d %+v", resp.StatusCode, ri)
		}
		return ri
	}

	// Same (key, step) as the stored auto-checkpoint: answered from disk.
	if ri := restore(capture()); !ri.FromStore || ri.Done != 2 {
		t.Fatalf("restore of stored step = %+v, want from_store at step 2", ri)
	}

	// A novel step: restored from the upload, then persisted.
	stepOne(t, s, sess) // step 3: not an auto-checkpoint boundary
	if st.Has(key, 3) {
		t.Fatal("step 3 unexpectedly already stored")
	}
	if ri := restore(capture()); ri.FromStore || ri.Done != 3 {
		t.Fatalf("restore of novel step = %+v, want from upload at step 3", ri)
	}
	waitFor(t, "uploaded container persisted", func() bool { return st.Has(key, 3) })
}

// TestRestoreOversized413: an upload beyond -max-restore-bytes answers
// 413, and the cap is configurable.
func TestRestoreOversized413(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, MaxRestoreBytes: 1024})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	big := bytes.Repeat([]byte{0xAB}, 4096)
	resp, err := http.Post(ts.URL+"/sims/restore", "application/octet-stream", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized restore: %d %s, want 413", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "1024") {
		t.Fatalf("413 body %q should name the cap", body)
	}

	// At (not beyond) the cap the request proceeds to validation: a
	// garbage container is the client's fault, not a size rejection.
	resp, err = http.Post(ts.URL+"/sims/restore", "application/octet-stream",
		bytes.NewReader(bytes.Repeat([]byte{0xCD}, 1024)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("at-cap garbage restore: %d, want 400", resp.StatusCode)
	}
}

// TestListSessions: GET /sims enumerates the registry in admission
// order — the discovery surface recovery clients depend on.
func TestListSessions(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 3; i++ {
		opts := testOpts(4 + i) // distinct keys
		if _, _, err := s.admit(s.buildCreate(opts)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/sims")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Sessions []sessionInfo `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Sessions) != 3 {
		t.Fatalf("listed %d sessions, want 3", len(out.Sessions))
	}
	for i, si := range out.Sessions {
		if want := "s-" + string(rune('1'+i)); si.ID != want {
			t.Fatalf("session %d listed as %s, want %s", i, si.ID, want)
		}
	}
}
