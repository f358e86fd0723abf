package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"upcbh/internal/nbody"
)

// gathersOut is how many gathers sess's frames hold and how many sit
// among its spares.
func gathersOut(sess *session) (out, spare int) {
	p := &sess.hub.frames
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gathers, len(p.spares.gathers)
}

// drainBodies subscribes a ?bodies=1 reader to sess that lets each frame
// go as soon as it arrives and signals read. The caller closes the hub.
func drainBodies(t *testing.T, s *Server, sess *session) (read, done <-chan struct{}) {
	t.Helper()
	var sub *subscriber
	onLoop(t, s, sess, func() { sub = sess.hub.subscribe(1, true) })
	r, d := make(chan struct{}, 1), make(chan struct{})
	go func() {
		defer close(d)
		for f := range sub.ch {
			f.release()
			r <- struct{}{}
		}
	}()
	return r, d
}

// TestBodiesPublishReusesGathers: in steady state, publishing a step's
// bodies to a ?bodies=1 subscriber gathers them into a spare of the
// session's, so k publications allocate less than one body slice per
// frame in total; and once the hub has closed and the stream drained,
// every line buffer and every gather has come back and no spare gather
// is kept.
func TestBodiesPublishReusesGathers(t *testing.T) {
	const warm, k = 4, 16
	s := newTestServer(t, Config{Shards: 1})
	opts := placedOpts(2048, 7)
	opts.Steps = warm + k + 1
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	read, done := drainBodies(t, s, sess)
	step := func() {
		onLoop(t, s, sess, func() {
			if _, err := stepCounters(s, sess, 1); err != nil {
				t.Error(err)
			}
		})
		<-read // the frame is back: the next step may reuse its gather
	}
	for range warm {
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range k {
		step()
	}
	runtime.ReadMemStats(&after)
	gather := uint64(opts.Bodies) * uint64(unsafe.Sizeof(nbody.Body{}))
	per := (after.TotalAlloc - before.TotalAlloc) / k
	t.Logf("%d B per published bodies frame; one body gather is %d B", per, gather)
	if per >= gather {
		t.Errorf("a published bodies frame allocated %d B; one body gather is %d B", per, gather)
	}
	if out, spare := gathersOut(sess); out != 0 || spare == 0 {
		t.Errorf("between steps: %d gathers out, %d spare; want 0 and some", out, spare)
	}

	step() // the last: finalizes the session and closes the hub
	<-done
	p := &sess.hub.frames
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lent != 0 || p.gathers != 0 || p.spares.gathers != nil {
		t.Errorf("after close and drain: %d line buffers and %d gathers out, %d spare gathers kept; want none",
			p.lent, p.gathers, len(p.spares.gathers))
	}
}

// TestPooledGatherOwnership: a ?bodies=1 /step, two bodies streams and
// GET /snapshot?bodies=1 race on one session. Every streamed line and every
// response is json.Encoder's line for its step in an uninterrupted
// in-process run: a gather handed back to the spares while a holder
// still encoded it would show as another step's bodies.
func TestPooledGatherOwnership(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, subBuffer: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	opts := testOpts(24)
	want := oracleLines(t, opts)
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	// check holds line to the oracle's and returns its step (-1 if it has
	// none). It runs on the readers' goroutines, so it reports with Errorf.
	check := func(what string, line []byte, whole bool) int {
		t.Helper()
		rest, _ := bytes.CutPrefix(line, []byte(`{"step":`))
		step, err := strconv.Atoi(string(rest[:max(bytes.IndexByte(rest, ','), 0)]))
		if err != nil || step < 0 || step > opts.Steps {
			t.Errorf("%s starts %.40q", what, line)
			return -1
		}
		wantLine := want.own[kindBodies][step]
		if whole {
			wantLine = want.whole[kindBodies][step]
		}
		if !bytes.Equal(line, wantLine) {
			t.Errorf("%s at step %d is not the uninterrupted run's line:\n got %.200s\nwant %.200s", what, step, line, wantLine)
		}
		return step
	}
	get := func(method, path string) ([]byte, int) {
		resp, err := http.DefaultClient.Do(mustRequest(t, method, ts.URL+"/sims/"+sess.id+path))
		if err != nil {
			t.Error(err)
			return nil, 0
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return b, resp.StatusCode
	}

	// Hold the stepper back until both streams have joined at step 0.
	onLoop(t, s, sess, func() { sess.stepping = true })
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, code := get("GET", "/stream?bodies=1")
			if code != http.StatusOK {
				t.Errorf("stream %d: status %d", i, code)
				return
			}
			lines := bytes.SplitAfter(b, []byte("\n"))
			for k, line := range lines[:len(lines)-1] {
				check(fmt.Sprintf("stream %d frame %d", i, k), line, k == 0)
			}
		}()
	}
	waitFor(t, "both streams to join", func() bool { return sess.hub.subscriberCount() == 2 })
	onLoop(t, s, sess, func() {
		sess.stepping = false
		s.ensureStepperLocked(sess, 1)
	})
	for path, whole := range map[string]bool{"/step?bodies=1": false, "/snapshot?bodies=1": true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			method := "GET"
			if !whole {
				method = "POST"
			}
			for {
				b, code := get(method, path)
				switch code {
				case http.StatusOK:
					if step := check(method+" "+path, b, whole); step < 0 || step == opts.Steps {
						return
					}
				case http.StatusTooManyRequests:
				case http.StatusConflict: // the streams' stepper finished the schedule
					return
				default:
					t.Errorf("%s %s: status %d: %s", method, path, code, b)
					return
				}
			}
		}()
	}
	wg.Wait()
	if out, _ := gathersOut(sess); out != 0 {
		t.Errorf("%d gathers still out after every stream ended", out)
	}
}

// discardWriter is a ResponseWriter that keeps nothing of what is
// written, so that a recorder's buffer does not count against an
// allocation test, and hands each Write's length and whether it carried
// bodies to wrote.
type discardWriter struct {
	hdr   http.Header
	code  int
	wrote func(n int, bodies bool)
}

func (w *discardWriter) Header() http.Header  { return w.hdr }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Flush()               {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.wrote(len(p), bytes.Contains(p, []byte(`"bodies":[`)))
	return len(p), nil
}

// TestBodiesResponsesReuseSpares: in steady state a POST /step?bodies=1
// and a GET /snapshot?bodies=1 gather into a spare of the session's and
// encode into a spare line, so each allocates less than one body gather
// per request.
func TestBodiesResponsesReuseSpares(t *testing.T) {
	const warm, k = 2, 8
	s := newTestServer(t, Config{Shards: 1})
	opts := placedOpts(2048, 7)
	opts.Steps = warm + k + 1 // still live after the measured steps: its spares are kept
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var bodied bool
	w := &discardWriter{hdr: http.Header{}, wrote: func(_ int, bodies bool) { bodied = bodied || bodies }}
	gather := uint64(opts.Bodies) * uint64(unsafe.Sizeof(nbody.Body{}))
	for _, req := range []struct{ method, path string }{{"POST", "/step?bodies=1"}, {"GET", "/snapshot?bodies=1"}} {
		serve := func() {
			w.code, bodied = 0, false
			h.ServeHTTP(w, httptest.NewRequest(req.method, "/sims/"+sess.id+req.path, nil))
			if w.code != http.StatusOK || !bodied {
				t.Fatalf("%s %s: status %d, bodies written %v", req.method, req.path, w.code, bodied)
			}
		}
		for range warm {
			serve()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range k {
			serve()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / k
		t.Logf("%s %s: %d B per request; one body gather is %d B", req.method, req.path, per, gather)
		if per >= gather {
			t.Errorf("%s %s allocated %d B per request; one body gather is %d B", req.method, req.path, per, gather)
		}
	}
}

// TestBodiesStreamReusesLines: a bodies stream's frames encode into the
// session's spare lines, which collections do not take, so with two
// collections between frames each frame still allocates less than one
// line; and once the stream has ended every buffer is back and no spare
// is kept.
func TestBodiesStreamReusesLines(t *testing.T) {
	const warm, k = 2, 6
	s := newTestServer(t, Config{Shards: 1})
	opts := placedOpts(2048, 7)
	opts.Steps = warm + k + 1
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	// The test steps the session itself: keep the stream from starting
	// a stepper.
	onLoop(t, s, sess, func() { sess.stepping = true })
	wrote := make(chan int, 1)
	w := &discardWriter{hdr: http.Header{}, wrote: func(n int, bodies bool) {
		if !bodies {
			t.Errorf("a %d-byte stream line without bodies", n)
		}
		wrote <- n
	}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/sims/"+sess.id+"/stream?bodies=1", nil))
	}()
	<-wrote // the first frame, written once the stream has subscribed
	line := 0
	step := func() {
		onLoop(t, s, sess, func() {
			f, err := s.stepLocked(sess, 1, false)
			if err != nil {
				t.Error(err)
				return
			}
			f.release()
		})
		line = <-wrote
	}
	for range warm {
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range k {
		runtime.GC()
		runtime.GC()
		step()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / k
	t.Logf("%d B per bodies frame; its line is %d B", per, line)
	if per >= uint64(line) {
		t.Errorf("a bodies frame allocated %d B with two collections between frames; its line is %d B", per, line)
	}

	step() // the last: finalizes the session and ends the stream
	<-done
	p := &sess.hub.frames
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lent != 0 || p.gathers != 0 || p.spares.gathers != nil || p.spares.lines[kindMeta] != nil || p.spares.lines[kindBodies] != nil {
		t.Errorf("after the stream ended: %d line buffers and %d gathers out, spares %d gathers and %d+%d lines; want none",
			p.lent, p.gathers, len(p.spares.gathers), len(p.spares.lines[kindMeta]), len(p.spares.lines[kindBodies]))
	}
}

// TestBodiesStepSharesSubscribersLine: a POST /step?bodies=1 answered
// while a bodies subscriber is attached sends the subscriber's line byte
// for byte, from the one frame both hold: gathered once, encoded once.
func TestBodiesStepSharesSubscribersLine(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	sess, _, err := s.admit(s.buildCreate(testOpts(3)))
	if err != nil {
		t.Fatal(err)
	}
	var sub *subscriber
	onLoop(t, s, sess, func() { sub = sess.hub.subscribe(1, true) })
	defer sess.hub.unsubscribe(sub)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/sims/"+sess.id+"/step?bodies=1", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /step?bodies=1: status %d: %s", w.Code, w.Body.Bytes())
	}
	f := <-sub.ch
	defer f.release()
	line, err := f.line(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), line) || !bytes.Contains(line, []byte(`"bodies":[`)) {
		t.Fatalf("the step response is not its subscriber's bodies line:\n got %.200s\nwant %.200s", w.Body.Bytes(), line)
	}
	if out, spare := gathersOut(sess); out != 1 || spare != 0 {
		t.Errorf("%d gathers out and %d spare while the subscriber holds the step's frame; want the one both used", out, spare)
	}
	p := &sess.hub.frames
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.encodes[kindBodies] != 1 {
		t.Errorf("the step's bodies line was encoded %d times, want once", p.encodes[kindBodies])
	}
}

// BenchmarkBodiesPublish is one step's bodies frame at n = 2048, from
// the gather to the subscriber's release, with the subscriber encoding
// its line: B/frame is what each published frame leaves to the collector.
func BenchmarkBodiesPublish(b *testing.B) {
	s := New(Config{Shards: 1, Logf: func(string, ...any) {}})
	defer s.Shutdown()
	opts := placedOpts(2048, 7)
	opts.Steps = 1 << 30
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		b.Fatal(err)
	}
	var sub *subscriber
	if err := s.onShard(sess, func() error { sub = sess.hub.subscribe(1, true); return nil }); err != nil {
		b.Fatal(err)
	}
	read := make(chan struct{})
	go func() {
		for f := range sub.ch {
			if _, err := f.line(true); err != nil {
				b.Error(err)
			}
			f.release()
			read <- struct{}{}
		}
	}()
	var m0, m1 runtime.MemStats
	publish := func() {
		if err := s.onShard(sess, func() error { _, err := stepCounters(s, sess, 1); return err }); err != nil {
			b.Fatal(err)
		}
		<-read
	}
	publish() // the first frame makes the gather and the line buffer
	runtime.ReadMemStats(&m0)
	for b.Loop() {
		publish()
	}
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N), "B/frame")
}
