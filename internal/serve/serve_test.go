package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"upcbh/internal/arena"
	"upcbh/internal/core"
	"upcbh/internal/hostenv"
)

// testOpts is a fast session configuration: small body count, few steps.
func testOpts(steps int) core.Options {
	opts := core.DefaultOptions(256, 2, core.LevelMergedBuild)
	opts.Steps, opts.Warmup = steps, 1
	return opts
}

// stepCounters is stepLocked for a test that reads only the step's
// counters: it copies the snapshot out without the bodies its frame may
// hand back, and releases the frame. Must run on sess's shard loop.
func stepCounters(s *Server, sess *session, k int) (*core.Snapshot, error) {
	f, err := s.stepLocked(sess, k, false)
	if err != nil {
		return nil, err
	}
	defer f.release()
	snap := *f.snap
	snap.Bodies = nil
	return &snap, nil
}

// onLoop runs fn on sess's shard loop.
func onLoop(t *testing.T, s *Server, sess *session, fn func()) {
	t.Helper()
	err := s.onShard(sess, func() error {
		fn()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s := New(cfg)
	t.Cleanup(s.Shutdown)
	return s
}

// placedOpts is a small native session of n bodies whose seed keeps it
// out of the result cache.
func placedOpts(n int, seed uint64) core.Options {
	opts := core.DefaultOptions(n, 1, core.LevelMergedBuild)
	opts.ExecMode = core.ModeNative
	opts.Steps, opts.Warmup, opts.Seed = 4, 0, seed
	return opts
}

// admitOK admits a session and returns it with its status.
func admitOK(t *testing.T, s *Server, a admission) (*session, sessionInfo) {
	t.Helper()
	sess, si, err := s.admit(a)
	if err != nil {
		t.Fatal(err)
	}
	return sess, si
}

// shardLoads is each shard's (sessions, bodies) as /stats reports them.
func shardLoads(s *Server) [][2]int {
	var loads [][2]int
	for _, sh := range s.Stats().Shards {
		loads = append(loads, [2]int{sh.Sessions, sh.Bodies})
	}
	return loads
}

// TestPlacementSpreadsSessions: two sessions on a two-shard server take
// different shards, and /stats shows each shard's load.
func TestPlacementSpreadsSessions(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	_, a := admitOK(t, s, s.buildCreate(placedOpts(64, 1)))
	_, b := admitOK(t, s, s.buildCreate(placedOpts(64, 2)))
	if a.Shard != 0 || b.Shard != 1 {
		t.Fatalf("sessions placed on shards %d and %d, want 0 and 1", a.Shard, b.Shard)
	}
	if got, want := shardLoads(s), [][2]int{{1, 64}, {1, 64}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("shard loads %v, want %v", got, want)
	}
}

// TestPlacementReleaseGivesLoadBack: a released session's shard gets its
// load back and takes the next session; a cache hit holds no live Sim
// and weighs nothing.
func TestPlacementReleaseGivesLoadBack(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	opts := placedOpts(64, 1)
	a, _ := admitOK(t, s, s.buildCreate(opts))
	admitOK(t, s, s.buildCreate(placedOpts(100, 2)))
	for i := 0; i < opts.Steps; i++ {
		stepOne(t, s, a) // the last step memoizes the result
	}
	onLoop(t, s, a, func() { s.releaseLocked(a) })
	if got, want := shardLoads(s), [][2]int{{0, 0}, {1, 100}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after release: shard loads %v, want %v", got, want)
	}
	if _, si := admitOK(t, s, s.buildCreate(opts)); !si.CacheHit || si.Shard != 0 {
		t.Fatalf("repeat create: cache_hit %t on shard %d, want a hit on shard 0", si.CacheHit, si.Shard)
	}
	if _, si := admitOK(t, s, s.buildCreate(placedOpts(64, 3))); si.Shard != 0 {
		t.Fatalf("create after a cache hit went to shard %d, want 0", si.Shard)
	}
	if got, want := shardLoads(s), [][2]int{{2, 64}, {1, 100}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("shard loads %v, want %v", got, want)
	}
}

// TestPlacementWeighsBodies: load is bodies, not sessions — with one
// 16384-body session on one shard and three 64-body sessions on the
// other, the next small session joins the small ones.
func TestPlacementWeighsBodies(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	_, big := admitOK(t, s, s.buildCreate(placedOpts(16384, 1)))
	for i := 0; i < 4; i++ {
		if _, si := admitOK(t, s, s.buildCreate(placedOpts(64, uint64(2+i)))); si.Shard == big.Shard {
			t.Fatalf("small session %d joined the 16384-body session's shard %d", i, si.Shard)
		}
	}
	if got, want := shardLoads(s), [][2]int{{1, 16384}, {4, 256}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("shard loads %v, want %v", got, want)
	}
}

// TestPlacementConcurrentCreates: concurrent admissions reserve their
// load in the critical section that picks the shard, so however they
// interleave the shards end within one session of each other. CI runs it
// under -race -count=5.
func TestPlacementConcurrentCreates(t *testing.T) {
	const creates, bodies = 64, 16
	s := newTestServer(t, Config{Shards: 4})
	var wg sync.WaitGroup
	errs := make(chan error, creates)
	for i := 0; i < creates; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.admit(s.buildCreate(placedOpts(bodies, uint64(i+1)))); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total, lo, hi := 0, creates*bodies, 0
	for _, sh := range s.Stats().Shards {
		if sh.Bodies != sh.Sessions*bodies {
			t.Fatalf("shard %d: %d bodies for %d sessions", sh.ID, sh.Bodies, sh.Sessions)
		}
		total += sh.Bodies
		lo, hi = min(lo, sh.Bodies), max(hi, sh.Bodies)
	}
	if total != creates*bodies || hi-lo > bodies {
		t.Fatalf("shard loads %v: %d bodies in all, spread %d, want %d within %d", shardLoads(s), total, hi-lo, creates*bodies, bodies)
	}
}

// TestPlacementRestoreAndRecovery: POST /sims/restore and boot recovery
// place sessions by the same rule. A container's bodies are charged once
// it is parsed, so the next placement already sees them.
func TestPlacementRestoreAndRecovery(t *testing.T) {
	bigOpts, smallOpts := placedOpts(2048, 1), placedOpts(64, 2)
	dir := t.TempDir()
	st1 := openTestStore(t, dir, nil)
	s1 := New(Config{Shards: 2, Store: st1, CkptEvery: 1, Logf: t.Logf})
	var ckpts [][]byte
	for _, opts := range []core.Options{bigOpts, smallOpts} {
		sess, _ := admitOK(t, s1, s1.buildCreate(opts))
		stepOne(t, s1, sess)
		waitFor(t, "step-1 checkpoint", func() bool { return stored(st1, opts.Key(), 1) != nil })
		data, _, err := st1.Newest(opts.Key())
		if err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, data)
	}
	s1.Shutdown()

	t.Run("restore", func(t *testing.T) {
		s := newTestServer(t, Config{Shards: 2})
		admitOK(t, s, s.buildCreate(placedOpts(64, 3)))
		admitOK(t, s, s.buildCreate(placedOpts(100, 4)))
		// Weightless at the pick, the big container goes to the lighter
		// shard 0 and is charged its 2048 bodies there ...
		if _, si := admitOK(t, s, s.buildRestore(ckpts[0])); si.Shard != 0 {
			t.Fatalf("restore placed on shard %d, want 0", si.Shard)
		}
		// ... so the small one goes to shard 1.
		if _, si := admitOK(t, s, s.buildRestore(ckpts[1])); si.Shard != 1 {
			t.Fatalf("second restore placed on shard %d, want 1", si.Shard)
		}
		if got, want := shardLoads(s), [][2]int{{2, 2112}, {2, 164}}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("shard loads %v, want %v", got, want)
		}
	})

	t.Run("recovery", func(t *testing.T) {
		s := newTestServer(t, Config{Shards: 2, Store: openTestStore(t, dir, nil)})
		if got := s.Stats().Sessions.Recovered; got != 2 {
			t.Fatalf("recovered %d sessions, want 2", got)
		}
		loads := shardLoads(s)
		if fmt.Sprint(loads) != "[[1 2048] [1 64]]" && fmt.Sprint(loads) != "[[1 64] [1 2048]]" {
			t.Fatalf("recovered sessions' shard loads %v, want one on each shard", loads)
		}
		light := 0
		if loads[1][1] < loads[0][1] {
			light = 1
		}
		if _, si := admitOK(t, s, s.buildCreate(placedOpts(64, 5))); si.Shard != light {
			t.Fatalf("create after recovery placed on shard %d, want the lighter %d", si.Shard, light)
		}
	})
}

// TestSessionLifecycle: create → step to completion → result, with the
// lifecycle sentinels surfacing on post-finish steps.
func TestSessionLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	sess, _, err := s.admit(s.buildCreate(testOpts(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var snap *core.Snapshot
		var stepErr error
		onLoop(t, s, sess, func() { snap, stepErr = stepCounters(s, sess, 1) })
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if snap.Step != i+1 {
			t.Fatalf("step %d: snapshot at step %d", i+1, snap.Step)
		}
	}
	// Schedule complete: the session auto-finalized and further steps
	// are lifecycle conflicts.
	var stepErr error
	onLoop(t, s, sess, func() { _, stepErr = stepCounters(s, sess, 1) })
	if stepErr == nil || httpStatus(stepErr) != http.StatusConflict {
		t.Fatalf("step after completion: err=%v status=%d, want 409", stepErr, httpStatus(stepErr))
	}
	if !sess.finished || sess.result == nil {
		t.Fatal("completed session not finalized")
	}
}

// TestCreateCacheHit: a completed run's result is reused for an
// identical later create — no simulation is built, the session is born
// finished, and the synthesized terminal snapshot matches the schedule.
func TestCreateCacheHit(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	opts := testOpts(3)

	first, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	onLoop(t, s, first, func() {
		if _, err := stepCounters(s, first, 3); err != nil {
			t.Errorf("run to completion: %v", err)
		}
	})

	second, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	if !second.cacheHit {
		t.Fatal("identical create after completion was not a cache hit")
	}
	if second.sim != nil {
		t.Fatal("cache-hit session built a simulation")
	}
	var f *frame
	onLoop(t, s, second, func() { f, err = second.frameLocked(true) })
	if err != nil {
		t.Fatal(err)
	}
	defer f.release()
	if f.snap.Step != opts.Steps {
		t.Fatalf("cache-hit snapshot at step %d, want terminal %d", f.snap.Step, opts.Steps)
	}
	if st := s.Stats(); st.Sessions.CacheHits != 1 {
		t.Fatalf("stats cache_hits = %d, want 1", st.Sessions.CacheHits)
	}

	// A partial run must NOT poison the cache: drain a half-stepped
	// session and re-create — the key promises the full schedule.
	partialOpts := testOpts(4)
	partialOpts.Seed = 999 // distinct key from the runs above
	p1, _, err := s.admit(s.buildCreate(partialOpts))
	if err != nil {
		t.Fatal(err)
	}
	onLoop(t, s, p1, func() {
		if _, err := stepCounters(s, p1, 2); err != nil {
			t.Errorf("partial step: %v", err)
		}
		s.releaseLocked(p1) // finishes at step 2 of 4: partial result
	})
	p2, _, err := s.admit(s.buildCreate(partialOpts))
	if err != nil {
		t.Fatal(err)
	}
	if p2.cacheHit {
		t.Fatal("partial (drained) result was memoized: cache poisoned")
	}
}

// TestBackpressureQueueFull: a full shard queue rejects immediately with
// errBusy (HTTP 429), and clears once the queue drains.
func TestBackpressureQueueFull(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, QueueDepth: 1})
	sh := s.shards[0]

	// Occupy the loop, then fill the single queue slot.
	block := make(chan struct{})
	running := make(chan struct{})
	nop := func() error { return nil }
	err := sh.submit(&task{done: make(chan struct{}), fn: func() error { close(running); <-block; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	if err := sh.submit(&task{done: make(chan struct{}), fn: nop}); err != nil {
		t.Fatal(err)
	}

	// Queue full: submissions shed load instead of blocking.
	probe := &session{shard: sh}
	err = s.onShard(probe, nop)
	if err == nil {
		t.Fatal("full queue accepted a task")
	}
	if httpStatus(err) != http.StatusTooManyRequests {
		t.Fatalf("full queue error %v maps to %d, want 429", err, httpStatus(err))
	}
	if st := s.Stats(); st.Sessions.Rejected != 1 {
		t.Fatalf("stats rejected = %d, want 1", st.Sessions.Rejected)
	}

	close(block)
	// The queue drains; submissions succeed again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.onShard(probe, nop) == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFanOutSubscribers: one stepper, several subscribers — including a
// slow one with a tiny buffer. Every subscriber sees strictly monotone
// step indices and the terminal snapshot; the slow one may lose
// intermediate frames (counted), never ordering or the final state.
func TestFanOutSubscribers(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, subBuffer: 2})
	steps := 6
	sess, _, err := s.admit(s.buildCreate(testOpts(steps)))
	if err != nil {
		t.Fatal(err)
	}

	const nSubs = 4 // subscriber 0 is deliberately slow
	subs := make([]*subscriber, nSubs)
	onLoop(t, s, sess, func() {
		for i := range subs {
			buf := s.cfg.subBuffer
			if i == 0 {
				buf = 1
			}
			subs[i] = sess.hub.subscribe(buf, false)
		}
		s.ensureStepperLocked(sess, 1)
	})

	var wg sync.WaitGroup
	got := make([][]int, nSubs)
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range sub.ch {
				if i == 0 {
					time.Sleep(5 * time.Millisecond) // lag behind the stepper
				}
				got[i] = append(got[i], f.snap.Step)
				f.release()
			}
		}()
	}
	wg.Wait()

	for i, seq := range got {
		if len(seq) == 0 {
			t.Fatalf("subscriber %d saw no snapshots", i)
		}
		for k := 1; k < len(seq); k++ {
			if seq[k] <= seq[k-1] {
				t.Fatalf("subscriber %d: non-monotone steps %v", i, seq)
			}
		}
		if seq[len(seq)-1] != steps {
			t.Fatalf("subscriber %d missed the terminal snapshot: %v", i, seq)
		}
	}
	// The fast subscribers with ample buffers saw every frame.
	if full := got[1]; len(full) != steps {
		t.Logf("subscriber 1 saw %v (drops allowed under -race scheduling)", full)
	}
}

// TestGracefulDrain: Shutdown stops admissions, parks steppers, and
// releases every session — none leak, and post-drain requests map to 503.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Shards: 2, Logf: t.Logf})
	var sessions []*session
	for i := 0; i < 6; i++ {
		sess, _, err := s.admit(s.buildCreate(testOpts(50))) // long schedule: drain cuts it short
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	// Put steppers on half of them so drain has live drivers to park.
	for _, sess := range sessions[:3] {
		onLoop(t, s, sess, func() { s.ensureStepperLocked(sess, 1) })
	}

	s.Shutdown()

	st := s.Stats()
	if st.Sessions.Live != 0 {
		t.Fatalf("%d sessions leaked past drain", st.Sessions.Live)
	}
	if st.Sessions.Released != 6 {
		t.Fatalf("released %d sessions, want 6", st.Sessions.Released)
	}
	for _, sess := range sessions {
		if !sess.released {
			t.Fatalf("session %s not released by drain", sess.id)
		}
	}
	if _, _, err := s.admit(s.buildCreate(testOpts(3))); err == nil || httpStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("post-drain create: err=%v, want 503 mapping", err)
	}
	s.Shutdown() // idempotent
}

// TestHTTPEndToEnd drives the full HTTP surface: create, status, step,
// snapshot, stream (NDJSON, monotone, terminal), result, delete, stats,
// and the 404/409/410 mappings.
func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("{}")
		} else {
			rd = strings.NewReader(body)
		}
		resp, err := http.Post(ts.URL+path, "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		if _, err := bufio.NewReader(resp.Body).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return resp, []byte(buf.String())
	}

	// Create with an options overlay.
	resp, body := post("/sims", `{"options":{"bodies":256,"steps":4,"warmup":1,"level":"merged","machine":{"threads":2}}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var si sessionInfo
	if err := json.Unmarshal(body, &si); err != nil {
		t.Fatal(err)
	}
	if si.Steps != 4 || si.Done != 0 || si.Finished || si.CacheHit {
		t.Fatalf("fresh session info: %+v", si)
	}

	// Step twice.
	resp, body = post("/sims/"+si.ID+"/step?k=2", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step: %d %s", resp.StatusCode, body)
	}
	var snap core.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Step != 2 {
		t.Fatalf("after step k=2: snapshot at %d", snap.Step)
	}
	if len(snap.Bodies) != 0 {
		t.Fatal("step response includes bodies without ?bodies=1")
	}

	// Snapshot endpoint agrees.
	resp, err := http.Get(ts.URL + "/sims/" + si.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Step != 2 {
		t.Fatalf("snapshot at %d, want 2", snap.Step)
	}

	// Stream the rest: strictly monotone from the current state to the
	// terminal step.
	resp, err = http.Get(ts.URL + "/sims/" + si.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type %q", ct)
	}
	var streamed []int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sn core.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &sn); err != nil {
			t.Fatalf("bad NDJSON: %v", err)
		}
		streamed = append(streamed, sn.Step)
	}
	resp.Body.Close()
	if len(streamed) == 0 || streamed[0] != 2 || streamed[len(streamed)-1] != 4 {
		t.Fatalf("streamed steps %v, want 2..4", streamed)
	}
	for k := 1; k < len(streamed); k++ {
		if streamed[k] <= streamed[k-1] {
			t.Fatalf("non-monotone stream %v", streamed)
		}
	}

	// The schedule completed during the stream: further steps are 409.
	resp, body = post("/sims/"+si.ID+"/step", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("step after completion: %d %s, want 409", resp.StatusCode, body)
	}

	// Result is available.
	resp, err = http.Get(ts.URL + "/sims/" + si.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Threads != 2 || res.Phases.Total() <= 0 {
		t.Fatalf("result: threads=%d total=%v", res.Threads, res.Phases.Total())
	}

	// An identical create is a cache hit, born finished.
	resp, body = post("/sims", `{"options":{"bodies":256,"steps":4,"warmup":1,"level":"merged","machine":{"threads":2}}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second create: %d %s", resp.StatusCode, body)
	}
	var si2 sessionInfo
	if err := json.Unmarshal(body, &si2); err != nil {
		t.Fatal(err)
	}
	if !si2.CacheHit || !si2.Finished || si2.Done != 4 {
		t.Fatalf("identical create not served from cache: %+v", si2)
	}

	// Delete; the session is then gone (404), and deleting again 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sims/"+si.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/sims/" + si.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after delete: %d, want 404", resp.StatusCode)
	}

	// Bad create bodies are 400.
	resp, body = post("/sims", `{"options":{"bodies":1}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid options: %d %s, want 400", resp.StatusCode, body)
	}
	// A zero/negative machine or a negative warmup is the client's
	// fault too: it used to panic inside core.New on the shard (500 via
	// the task's panic recovery) instead of being rejected. The /stats
	// request below shows the shards still serve afterwards. So is
	// native below its floor, the cache level (registers no session: the
	// created count below stays 2).
	for _, o := range []string{`{"machine":{"threads":0}}`, `{"machine":{"threads_per_node":-1}}`, `{"warmup":-1}`,
		`{"exec_mode":"native","level":"baseline"}`} {
		resp, body = post("/sims", `{"options":`+o+`}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("options %s: %d %s, want 400", o, resp.StatusCode, body)
		}
	}

	// Stats reflect the traffic.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Sessions.Created != 2 || st.Sessions.CacheHits != 1 {
		t.Fatalf("stats: %+v", st.Sessions)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("stats shards: %+v", st.Shards)
	}
	// ... and say which host and force kernel served it.
	if want := hostenv.Capture(); st.Env != want || st.Env.ForceKernel == "" {
		t.Fatalf("stats env = %+v, want %+v with a force_kernel", st.Env, want)
	}
}

// TestStepDoesNotMutateStreamedSnapshot: /step without ?bodies must not
// strip Bodies from the hub-published snapshot a stream subscriber is
// concurrently encoding — the handler strips on a copy. The subscriber
// here encodes every published frame exactly as the stream endpoint's
// ?bodies=1 path does; under -race the old in-place mutation is a
// reported data race, and functionally every frame must keep its bodies.
func TestStepDoesNotMutateStreamedSnapshot(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, subBuffer: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	opts := core.DefaultOptions(1024, 2, core.LevelMergedBuild)
	opts.Steps, opts.Warmup = 20, 1
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	var sub *subscriber
	onLoop(t, s, sess, func() { sub = sess.hub.subscribe(s.cfg.subBuffer, true) })

	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range sub.ch {
			b, err := f.line(true) // encodes the published snapshot the /step handler also holds
			if err != nil {
				t.Errorf("encode frame: %v", err)
				return
			}
			var sn core.Snapshot
			err = json.Unmarshal(b, &sn)
			f.release()
			if err != nil {
				t.Errorf("decode frame: %v", err)
				return
			}
			if len(sn.Bodies) == 0 {
				t.Errorf("streamed frame %d lost its bodies to /step", sn.Step)
			}
		}
	}()

	// Drive the whole schedule via body-less /step requests racing the
	// subscriber's encoder; 429 under queue pressure is a retry.
	deadline := time.Now().Add(30 * time.Second)
	for stepped := 0; stepped < opts.Steps && time.Now().Before(deadline); {
		resp, err := http.Post(ts.URL+"/sims/"+sess.id+"/step", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			stepped++
		}
	}
	<-done // finalize closed the hub after the last step
}

// TestSnapshotsDroppedMonotone: releasing a session whose subscribers
// lost frames must not shrink the service-wide drop counter — released
// sessions' drops fold into a server accumulator.
func TestSnapshotsDroppedMonotone(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	sess, _, err := s.admit(s.buildCreate(testOpts(4)))
	if err != nil {
		t.Fatal(err)
	}
	// A subscriber with a one-deep buffer that never drains: every
	// publish past the first evicts its oldest frame.
	onLoop(t, s, sess, func() {
		sess.hub.subscribe(1, false)
		if _, err := stepCounters(s, sess, 1); err != nil {
			t.Errorf("step: %v", err)
			return
		}
		if _, err := stepCounters(s, sess, 1); err != nil {
			t.Errorf("step: %v", err)
		}
	})
	before := s.Stats().SnapshotsDropped
	if before == 0 {
		t.Fatal("slow subscriber produced no drops")
	}
	onLoop(t, s, sess, func() { s.releaseLocked(sess) })
	if after := s.Stats().SnapshotsDropped; after < before {
		t.Fatalf("SnapshotsDropped shrank on release: %d -> %d", before, after)
	}
}

// TestTrySubmitAfterShutdown: once the shard loops have exited, a
// straggling submit must be rejected with errDraining rather than
// enqueueing a task nobody will run (which would hang the caller on
// <-t.done forever).
func TestTrySubmitAfterShutdown(t *testing.T) {
	s := New(Config{Shards: 1, Logf: t.Logf})
	s.Shutdown()
	err := s.shards[0].submit(&task{done: make(chan struct{}), fn: func() error { return nil }})
	if !errors.Is(err, errDraining) {
		t.Fatalf("submit on a stopped shard: err=%v, want errDraining", err)
	}
}

// TestStreamFromFinishedSession: streaming a completed (cache-hit)
// session yields exactly the terminal snapshot and a closed stream.
func TestStreamFromFinishedSession(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	opts := testOpts(2)
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	onLoop(t, s, sess, func() {
		if _, err := stepCounters(s, sess, 2); err != nil {
			t.Errorf("run: %v", err)
		}
	})

	resp, err := http.Get(ts.URL + "/sims/" + sess.id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 1 {
		t.Fatalf("finished-session stream emitted %d frames, want 1", len(lines))
	}
	var sn core.Snapshot
	if err := json.Unmarshal([]byte(lines[0]), &sn); err != nil {
		t.Fatal(err)
	}
	if sn.Step != 2 {
		t.Fatalf("terminal frame at step %d, want 2", sn.Step)
	}
}

// TestStreamWriteDeadline: a client that sends the stream request and
// then never reads stalls the handler's writes once the socket buffers
// are full. The per-frame write deadline ends the handler, which
// unsubscribes — while the session is still running, so the hub did not
// end the stream — and after DELETE no frame buffer is still out.
func TestStreamWriteDeadline(t *testing.T) {
	defer func(d time.Duration) { streamWriteTimeout = d }(streamWriteTimeout)
	streamWriteTimeout = 100 * time.Millisecond

	s := newTestServer(t, Config{Shards: 1, subBuffer: 2})
	returned := make(chan struct{})
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/stream") {
			close(returned)
		}
	}))
	t.Cleanup(ts.Close)

	// Bodies frames of ~0.7 MB each, and far more steps than the test
	// lasts: the stream can only end by the deadline.
	opts := core.DefaultOptions(2048, 2, core.LevelMergedBuild)
	opts.ExecMode = core.ModeNative
	opts.Steps, opts.Warmup = 20000, 1
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	if _, err := fmt.Fprintf(conn, "GET /sims/%s/stream?bodies=1 HTTP/1.1\r\nHost: test\r\n\r\n", sess.id); err != nil {
		t.Fatal(err)
	}
	select {
	case <-returned:
	case <-time.After(20 * time.Second):
		t.Fatal("the stream handler is still writing to a client that stopped reading")
	}
	if n := sess.hub.subscriberCount(); n != 0 {
		t.Errorf("%d subscribers left after the stalled stream ended", n)
	}
	if si, err := s.info(sess); err != nil || si.Finished {
		t.Fatalf("session finished (%v) before the stream stalled: the deadline went untested", err)
	}

	resp, err := http.DefaultClient.Do(mustRequest(t, "DELETE", ts.URL+"/sims/"+sess.id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	p := &sess.hub.frames
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lent != 0 {
		t.Errorf("%d line buffers still out after the stalled stream and DELETE", p.lent)
	}
}

// TestHTTPCheckpointRestore drives the persistence surface end to end:
// checkpoint a live session mid-run over HTTP, restore the container as
// a fresh session, and the restored run's remaining trajectory and final
// Result are byte-identical to the uninterrupted original. Corrupted
// containers and sessions with no live simulation map to clean client
// errors, never a crash.
func TestHTTPCheckpointRestore(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const optsJSON = `{"options":{"bodies":256,"steps":4,"warmup":1,"level":"merged","machine":{"threads":2}}}`
	resp, err := http.Post(ts.URL+"/sims", "application/json", strings.NewReader(optsJSON))
	if err != nil {
		t.Fatal(err)
	}
	var si sessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&si); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Advance to step 2 and capture the container.
	resp, err = http.Post(ts.URL+"/sims/"+si.ID+"/step?k=2", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/sims/"+si.ID+"/checkpoint", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, ckpt)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("checkpoint content-type %q", ct)
	}
	if step := resp.Header.Get("X-Checkpoint-Step"); step != "2" {
		t.Fatalf("X-Checkpoint-Step %q, want 2", step)
	}

	// Restore the container as a new session: it resumes at step 2.
	resp, err = http.Post(ts.URL+"/sims/restore", "application/octet-stream", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	var ri sessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&ri); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("restore: %d", resp.StatusCode)
	}
	if ri.Done != 2 || ri.Steps != 4 || ri.Key != si.Key || ri.Finished {
		t.Fatalf("restored session info: %+v", ri)
	}

	// Run both to completion; the results must be byte-identical.
	finalResult := func(id string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/sims/"+id+"/step?k=2", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %s to completion: %d", id, resp.StatusCode)
		}
		resp, err = http.Get(ts.URL + "/sims/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: %d %s", id, resp.StatusCode, raw)
		}
		return raw
	}
	ref := finalResult(si.ID)
	got := finalResult(ri.ID)
	if !bytes.Equal(ref, got) {
		t.Fatalf("restored run's result diverged from the original:\n%.300s\nvs\n%.300s", got, ref)
	}

	// A finished session has no paused state to capture: 409.
	resp, err = http.Post(ts.URL+"/sims/"+si.ID+"/checkpoint", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint of finished session: %d, want 409", resp.StatusCode)
	}

	// A cache-hit session never had a live simulation: 409.
	resp, err = http.Post(ts.URL+"/sims", "application/json", strings.NewReader(optsJSON))
	if err != nil {
		t.Fatal(err)
	}
	var ci sessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&ci); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ci.CacheHit {
		t.Fatalf("expected a cache hit: %+v", ci)
	}
	resp, err = http.Post(ts.URL+"/sims/"+ci.ID+"/checkpoint", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint of cache-hit session: %d, want 409", resp.StatusCode)
	}

	// Corrupted and garbage containers are the client's fault: 400 with
	// the validation error, and no session is created. That includes a
	// CRC-valid container whose state region smuggles out-of-range
	// double-buffer geometry — accepted, it would panic the whole
	// process on the restored session's next step.
	before := s.Stats().Sessions.Created
	bad := append([]byte(nil), ckpt...)
	bad[len(bad)-1] ^= 0x40 // payload corruption: CRC mismatch
	crafted := func() []byte {
		c, err := arena.ReadCheckpoint(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		state, _ := c.Region("state")
		var m map[string]any
		if err := json.Unmarshal(state, &m); err != nil {
			t.Fatal(err)
		}
		th0 := m["threads"].([]any)[0].(map[string]any)
		th0["cur"] = 9
		th0["buf"] = []any{map[string]any{"Thr": 0, "Idx": 1 << 30}, map[string]any{"Thr": 0, "Idx": 0}}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		regions := []arena.NamedRegion{{Name: "state", Data: enc}}
		for _, r := range c.Header.Regions {
			if data, _ := c.Region(r.Name); r.Name != "state" {
				regions = append(regions, arena.NamedRegion{Name: r.Name, Data: data})
			}
		}
		var buf bytes.Buffer
		err = arena.WriteCheckpoint(&buf, c.Header.Key, c.Header.Step, nil, regions)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	for _, body := range [][]byte{bad, []byte("not a checkpoint"), nil, crafted} {
		resp, err = http.Post(ts.URL+"/sims/restore", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("restore of bad container: %d %s, want 400", resp.StatusCode, raw)
		}
	}
	if after := s.Stats().Sessions.Created; after != before {
		t.Fatalf("bad restores created %d sessions", after-before)
	}
}

// TestHugeStepsSession: a session configured for 200 000 000 steps —
// the one request that once sized a per-step table from Options.Steps
// and killed the process — is created, stepped, checkpointed, restored
// and stepped again, and each request gets its normal answer.
func TestHugeStepsSession(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	post := func(path, ctype string, body []byte, want int) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("POST %s: %d %s, want %d", path, resp.StatusCode, raw, want)
		}
		return raw
	}
	session := func(raw []byte) sessionInfo {
		t.Helper()
		var si sessionInfo
		if err := json.Unmarshal(raw, &si); err != nil {
			t.Fatal(err)
		}
		return si
	}

	const create = `{"threads":1,"options":{"bodies":64,"level":"merged","exec_mode":"native","steps":200000000}}`
	si := session(post("/sims", "application/json", []byte(create), http.StatusCreated))
	post("/sims/"+si.ID+"/step", "application/json", []byte("{}"), http.StatusOK)
	ckpt := post("/sims/"+si.ID+"/checkpoint", "application/octet-stream", nil, http.StatusOK)
	ri := session(post("/sims/restore", "application/octet-stream", ckpt, http.StatusCreated))
	if ri.Done != 1 || ri.Steps != 200000000 {
		t.Fatalf("restored session at step %d of %d, want 1 of 200000000", ri.Done, ri.Steps)
	}
	post("/sims/"+ri.ID+"/step", "application/json", []byte("{}"), http.StatusOK)
}

// TestStepCostIndependentOfAge: a session costs the same at step 10 000
// as at step 100. A 64-body native session is stepped one request at a
// time through Handler() at both ages: a POST /step response's bytes and
// the bytes allocated per step at the later age are within 2× of the
// earlier age's, and between the ages the live heap grows by one 48-byte
// step-phase row per step, plus the slack append leaves in the table.
func TestStepCostIndependentOfAge(t *testing.T) {
	const (
		early, late = 100, 10000
		window      = 50 // single-step requests measured at each age
		rowBytes    = uint64(unsafe.Sizeof(core.PhaseTimes{}))
	)
	s := newTestServer(t, Config{Shards: 1, Logf: func(string, ...any) {}})
	h := s.Handler()
	post := func(path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code/100 != 2 {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var si sessionInfo
	create := fmt.Sprintf(`{"threads":1,"options":{"bodies":64,"level":"merged","exec_mode":"native","steps":%d,"warmup":0}}`, 2*late)
	if err := json.Unmarshal(post("/sims", create), &si); err != nil {
		t.Fatal(err)
	}
	step, done := "/sims/"+si.ID+"/step", 0
	advanceTo := func(target int) { // in short hops: no response large enough to linger in a pool
		for done < target {
			k := min(target-done, 100)
			post(fmt.Sprintf("%s?k=%d", step, k), "")
			done += k
		}
	}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	type cost struct{ live, respBytes, allocBytes uint64 }
	measure := func() cost {
		runtime.GC()
		metrics.Read(sample)
		c := cost{live: sample[0].Value.Uint64()}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range window {
			c.respBytes += uint64(len(post(step, "")))
		}
		runtime.ReadMemStats(&m1)
		done += window
		c.respBytes /= window
		c.allocBytes = (m1.TotalAlloc - m0.TotalAlloc) / window
		return c
	}
	advanceTo(early)
	young := measure()
	advanceTo(late)
	old := measure()
	t.Logf("step %d: %+v; step %d: %+v", early, young, late, old)
	if old.respBytes > 2*young.respBytes {
		t.Errorf("a step response is %d bytes at step %d, %d at step %d", old.respBytes, late, young.respBytes, early)
	}
	if old.allocBytes > 2*young.allocBytes {
		t.Errorf("a step allocates %d bytes at step %d, %d at step %d", old.allocBytes, late, young.allocBytes, early)
	}
	rows := uint64(late - early)
	if grew := int64(old.live) - int64(young.live); grew > int64(rows*rowBytes*5/4) {
		t.Errorf("live heap grew %d bytes over %d steps: %.1f bytes per step, want one %d-byte row",
			grew, rows, float64(grew)/float64(rows), rowBytes)
	}
}

// TestServeMemoryBoundedUnderChurn: sessions that finish and are deleted
// leave only their cached results behind, and the shared cache holds
// those within its byte budget, so the live heap of a process that churns
// through distinct configurations stops growing once the cache is full.
func TestServeMemoryBoundedUnderChurn(t *testing.T) {
	const (
		lifecycles = 2000
		mark       = 500     // the cache is full by here
		budget     = 4 << 20 // bench.Runner's cacheBudget
		maxGrowth  = 8 << 20
	)
	if testing.Short() {
		t.Skip("2000 lifecycles; seconds without -race, tens of seconds with it")
	}
	s := newTestServer(t, Config{Shards: 2, Logf: func(string, ...any) {}})
	h := s.Handler()
	do := func(method, path string, body []byte, want int) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: %d %s, want %d", method, path, rec.Code, rec.Body, want)
		}
		return rec.Body.Bytes()
	}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	liveHeap := func() uint64 {
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}

	var atMark uint64
	for i := 1; i <= lifecycles; i++ {
		// One native thread over a few bodies makes a step cheap; the
		// schedule's length makes each result a few KiB.
		o := core.DefaultOptions(32, 1, core.LevelMergedBuild)
		o.ExecMode, o.Steps, o.Warmup, o.Seed = core.ModeNative, 100, 0, uint64(i)
		opts, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		var si sessionInfo
		if err := json.Unmarshal(do("POST", "/sims", append(append([]byte(`{"options":`), opts...), '}'), http.StatusCreated), &si); err != nil {
			t.Fatal(err)
		}
		if si.CacheHit {
			t.Fatalf("lifecycle %d: a distinct seed hit the cache", i)
		}
		do("POST", "/sims/"+si.ID+"/step?k=100", nil, http.StatusOK)
		do("DELETE", "/sims/"+si.ID, nil, http.StatusNoContent)
		if i == mark {
			atMark = liveHeap()
		}
	}
	end := liveHeap()
	st := s.Stats()
	if st.Runner.CachedBytes > budget {
		t.Errorf("cache holds %d bytes, over its %d-byte budget", st.Runner.CachedBytes, budget)
	}
	if st.Runner.CapacityEvictions == 0 {
		t.Errorf("%d distinct results never filled the cache: %+v", lifecycles, st.Runner)
	}
	if st.Sessions.Live != 0 {
		t.Errorf("%d sessions still registered after every DELETE", st.Sessions.Live)
	}
	if end > atMark && end-atMark > maxGrowth {
		t.Errorf("live heap grew %d → %d bytes between lifecycle %d and %d", atMark, end, mark, lifecycles)
	}
	t.Logf("live heap %d → %d bytes; runner %+v", atMark, end, st.Runner)
}
