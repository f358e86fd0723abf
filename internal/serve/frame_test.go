package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"upcbh/internal/core"
	"upcbh/internal/nbody"
)

// The bytes the service sends are its contract. These tests hold every
// snapshot that leaves it — stream frames, step and snapshot responses —
// against encoding/json over plainSnapshot: core.Snapshot's fields without
// its methods, so it stays the reflection oracle whatever Snapshot grows.
type plainSnapshot core.Snapshot

// oracle is json.Encoder's line for the snapshot at every step, by kind:
// whole with the whole step-phase table (GET /snapshot, a stream's first
// frame), own with the row of that step alone (POST /step, and every
// frame a stream publishes after its first, one step apart).
type oracle struct{ whole, own [2][][]byte }

// oracleLines runs opts in process (the simulate backend is
// deterministic: the same steps give the same clocks and phase tables)
// and returns the oracle's lines at every step.
func oracleLines(t *testing.T, opts core.Options) (o oracle) {
	t.Helper()
	sim, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	encode := func(snap *core.Snapshot) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode((*plainSnapshot)(snap)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for step := 0; ; step++ {
		snap, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []int{kindBodies, kindMeta} {
			if kind == kindMeta {
				snap.Bodies = nil
			}
			o.whole[kind] = append(o.whole[kind], encode(snap))
			own := *snap
			own.StepPhases = own.StepPhases[max(len(own.StepPhases)-1, 0):]
			o.own[kind] = append(o.own[kind], encode(&own))
		}
		if step == opts.Steps {
			return o
		}
		if err := sim.Step(1); err != nil {
			t.Fatal(err)
		}
	}
}

// lineStep parses the step a frame's line starts with.
func lineStep(t *testing.T, line []byte) int {
	t.Helper()
	rest, ok := bytes.CutPrefix(line, []byte(`{"step":`))
	comma := bytes.IndexByte(rest, ',')
	if !ok || comma < 0 {
		t.Fatalf("frame starts %.40q", line)
	}
	step, err := strconv.Atoi(string(rest[:comma]))
	if err != nil {
		t.Fatalf("frame starts %.40q", line)
	}
	return step
}

// gatedWriter is a stream client that takes the first frame and then
// stops reading until its gate opens: the handler blocks in Write, the
// subscriber's queue overflows, and the hub must drop.
type gatedWriter struct {
	hdr    http.Header
	gate   chan struct{}
	writes int
	body   bytes.Buffer
}

func (g *gatedWriter) Header() http.Header { return g.hdr }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Flush()              {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	if g.writes++; g.writes > 1 {
		<-g.gate
	}
	return g.body.Write(p)
}

// noShardEncodes makes every encoding of sess's frames fail the test if
// it runs on a shard loop.
func noShardEncodes(t *testing.T, sess *session) {
	sess.hub.frames.testEncodeHook = func() {
		stack := make([]byte, 8<<10)
		if stack = stack[:runtime.Stack(stack, false)]; bytes.Contains(stack, []byte("(*shard).run")) {
			t.Errorf("a frame was encoded on a shard loop:\n%s", stack)
		}
	}
}

// TestStreamFramesAreEncodingJSONs: whatever the mix of subscribers —
// with and without bodies, keeping up or stalled until the hub has dropped
// frames on them — every line each receives is json.Encoder's line for
// that step, the first with the whole step-phase table and every later
// one with its own step's row; each frame is encoded once per kind however many read it,
// never on the shard loop; and when the streams have ended no line buffer
// is still out.
func TestStreamFramesAreEncodingJSONs(t *testing.T) {
	type subSpec struct{ bodies, slow bool }
	fastBodies, fastMeta := subSpec{bodies: true}, subSpec{}
	slowBodies, slowMeta := subSpec{bodies: true, slow: true}, subSpec{slow: true}
	opts := testOpts(12)
	want := oracleLines(t, opts)

	for name, specs := range map[string][]subSpec{
		"1-fast-bodies": {fastBodies},
		"1-slow-meta":   {slowMeta},
		"2":             {fastBodies, slowBodies},
		"4":             {fastBodies, fastMeta, slowBodies, slowMeta},
	} {
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, Config{Shards: 2, subBuffer: 3})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			sess, _, err := s.admit(s.buildCreate(opts))
			if err != nil {
				t.Fatal(err)
			}
			noShardEncodes(t, sess)
			// Hold the stepper back until every subscriber has joined, so all
			// of them start at step 0 and the drops are the stalled readers'.
			onLoop(t, s, sess, func() { sess.stepping = true })

			gate := make(chan struct{})
			got := make([][]byte, len(specs))
			var wg sync.WaitGroup
			for i, spec := range specs {
				path := "/sims/" + sess.id + "/stream"
				if spec.bodies {
					path += "?bodies=1"
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if spec.slow {
						w := &gatedWriter{hdr: http.Header{}, gate: gate}
						s.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
						got[i] = w.body.Bytes()
						return
					}
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					if got[i], err = io.ReadAll(resp.Body); err != nil {
						t.Error(err)
					}
				}()
			}
			waitFor(t, "every subscriber to join", func() bool { return sess.hub.subscriberCount() == len(specs) })
			onLoop(t, s, sess, func() {
				sess.stepping = false
				s.ensureStepperLocked(sess, 1)
			})
			waitFor(t, "the schedule to complete", func() bool {
				si, err := s.info(sess)
				return err == nil && si.Finished
			})
			close(gate)
			wg.Wait()

			var delivered [2]map[int]bool // steps some subscriber of the kind got from the hub
			var wantEncodes [2]uint64
			for i, spec := range specs {
				kind := kindOf(spec.bodies)
				if delivered[kind] == nil {
					delivered[kind] = map[int]bool{}
				}
				lines := bytes.SplitAfter(got[i], []byte("\n"))
				if n := len(lines); n < 2 || len(lines[n-1]) != 0 {
					t.Fatalf("subscriber %d: stream of %d bytes does not end in a whole line", i, len(got[i]))
				}
				lines = lines[:len(lines)-1]
				last := -1
				for k, line := range lines {
					step := lineStep(t, line)
					if step <= last || step > opts.Steps {
						t.Fatalf("subscriber %d: step %d after step %d", i, step, last)
					}
					last = step
					wantLine := want.own[kind][step]
					if k == 0 {
						wantLine = want.whole[kind][step]
					}
					if !bytes.Equal(line, wantLine) {
						t.Fatalf("subscriber %d (%+v): frame %d is not json.Encoder's line:\n got %.200s\nwant %.200s",
							i, spec, step, line, wantLine)
					}
					if k > 0 {
						delivered[kind][step] = true
					}
				}
				if lineStep(t, lines[0]) != 0 || last != opts.Steps {
					t.Fatalf("subscriber %d: stream ran from step %d to %d, want 0 to %d", i, lineStep(t, lines[0]), last, opts.Steps)
				}
				if spec.slow && len(lines) > 2+s.cfg.subBuffer {
					t.Fatalf("stalled subscriber %d got %d frames through a %d-deep queue", i, len(lines), s.cfg.subBuffer)
				}
				wantEncodes[kind]++ // its first frame: the session's state when it joined, its own
			}
			for kind := range delivered {
				wantEncodes[kind] += uint64(len(delivered[kind]))
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
			if p.encodes != wantEncodes {
				t.Errorf("encodings by kind %v, want %v: one per frame delivered, not per subscriber", p.encodes, wantEncodes)
			}
			if p.lent != 0 {
				t.Errorf("%d line buffers still out after every stream ended", p.lent)
			}
			var slow bool
			for _, spec := range specs {
				slow = slow || spec.slow
			}
			if slow && sess.hub.droppedCount() == 0 {
				t.Error("the stalled subscribers forced no drop: the drop path went untested")
			}
		})
	}
}

func mustRequest(t *testing.T, method, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestSnapshotResponsesAreEncodingJSONs: POST /step and GET /snapshot,
// with and without ?bodies=1, answer json.Encoder's bytes at every step:
// a step's with its own step-phase row, a snapshot's with the whole table.
func TestSnapshotResponsesAreEncodingJSONs(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	opts := testOpts(5)
	want := oracleLines(t, opts)
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	body := func(method, path string) []byte {
		t.Helper()
		resp, err := http.DefaultClient.Do(mustRequest(t, method, ts.URL+"/sims/"+sess.id+path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, %v: %s", method, path, resp.StatusCode, err, b)
		}
		return b
	}
	check := func(what string, got []byte, want [2][][]byte, kind, step int) {
		t.Helper()
		if !bytes.Equal(got, want[kind][step]) {
			t.Fatalf("%s at step %d is not json.Encoder's document:\n got %.200s\nwant %.200s", what, step, got, want[kind][step])
		}
	}
	for step := 0; ; step++ {
		check("GET /snapshot", body("GET", "/snapshot"), want.whole, kindMeta, step)
		check("GET /snapshot?bodies=1", body("GET", "/snapshot?bodies=1"), want.whole, kindBodies, step)
		if step == opts.Steps {
			break
		}
		if step%2 == 0 {
			check("POST /step", body("POST", "/step"), want.own, kindMeta, step+1)
		} else {
			check("POST /step?bodies=1", body("POST", "/step?bodies=1"), want.own, kindBodies, step+1)
		}
	}
}

// TestSnapshotWithoutBodiesGathersNone: GET /snapshot without ?bodies
// does not gather the bodies it would throw away — each request allocates
// less than half of one body gather, at a size where the gather dwarfs
// the rest of the response.
func TestSnapshotWithoutBodiesGathersNone(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	opts := placedOpts(16384, 1)
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	get := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/sims/"+sess.id+"/snapshot", nil))
		if w.Code != http.StatusOK || bytes.Contains(w.Body.Bytes(), []byte(`"bodies"`)) {
			t.Fatalf("GET /snapshot: status %d, %.80q", w.Code, w.Body.Bytes())
		}
	}
	get() // the first request starts the simulation and fills the pools
	const requests = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range requests {
		get()
	}
	runtime.ReadMemStats(&after)
	gather := uint64(opts.Bodies) * uint64(unsafe.Sizeof(nbody.Body{}))
	per := (after.TotalAlloc - before.TotalAlloc) / requests
	if per >= gather/2 {
		t.Errorf("GET /snapshot without bodies allocated %d B per request; one body gather is %d B", per, gather)
	}
	t.Logf("%d B per request; one body gather is %d B", per, gather)
}

// TestStreamWithoutBodiesGathersNone: a stream subscriber that did not
// ask for bodies (no ?bodies=1) does not make each step gather them — the
// snapshot a step publishes to it carries none.
func TestStreamWithoutBodiesGathersNone(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	opts := placedOpts(256, 1)
	opts.Steps = 100
	sess, _, err := s.admit(s.buildCreate(opts))
	if err != nil {
		t.Fatal(err)
	}
	// The test steps the session itself: keep the stream from starting
	// a stepper.
	onLoop(t, s, sess, func() { sess.stepping = true })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/sims/"+sess.id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, "the stream to subscribe", func() bool { return sess.hub.subscriberCount() == 1 })
	for range 3 {
		onLoop(t, s, sess, func() {
			f, err := s.stepLocked(sess, 1, false)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.release()
			if len(f.snap.Bodies) != 0 {
				t.Errorf("step %d published %d bodies to a stream that did not ask for them", f.snap.Step, len(f.snap.Bodies))
			}
		})
	}
}

// TestFrameLifetime: a frame's lines come from the spares and go back when
// its last holder lets go, and a release beyond the holders panics
// instead of freeing a buffer someone else may be writing from.
func TestFrameLifetime(t *testing.T) {
	opts := testOpts(2)
	sim, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var p framePool
	f := p.newFrame(snap, nil)
	f.retain()
	first, err := f.line(true)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := f.line(true); &again[0] != &first[0] || p.encodes != [2]uint64{kindBodies: 1} {
		t.Fatalf("a second reader re-encoded the frame (encodes %v)", p.encodes)
	}
	if meta, _ := f.line(false); bytes.Contains(meta, []byte(`"bodies"`)) || !bytes.Contains(first, []byte(`"bodies"`)) {
		t.Fatal("the frame's two kinds are mixed up")
	}
	f.release()
	if p.lent != 2 {
		t.Fatalf("%d buffers out while a holder remains, want 2", p.lent)
	}
	f.release()
	if p.lent != 0 {
		t.Fatalf("after the last release: %d out", p.lent)
	}
	next := p.newFrame(snap, nil)
	next.release()

	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "released more often") {
			t.Fatalf("double release: recovered %v, want the lifetime panic", r)
		}
	}()
	next.release()
}

// BenchmarkStreamFanOut is one published frame read by `subs` stream
// writers of the ?bodies=1 kind, each writing its line out: the encoding
// happens once, so ns/op must stay flat as subscribers are added
// (encodes/frame reports the count). Publication waits for the previous
// frame's readers, so no frame is dropped and every one is encoded.
func BenchmarkStreamFanOut(b *testing.B) {
	opts := core.DefaultOptions(2048, 1, core.LevelMergedBuild)
	opts.ExecMode = core.ModeNative
	sim, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Release()
	snap, err := sim.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	for _, subs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			h := newHub()
			var read, done sync.WaitGroup
			for i := 0; i < subs; i++ {
				sub := h.subscribe(1, true)
				done.Add(1)
				go func() {
					defer done.Done()
					for f := range sub.ch {
						line, err := f.line(true)
						if err != nil {
							b.Error(err)
						}
						_, _ = io.Discard.Write(line)
						f.release()
						read.Done()
					}
				}()
			}
			b.SetBytes(int64(len(bodiesLine(b, snap))))
			for b.Loop() {
				read.Add(subs)
				f := h.frames.newFrame(snap, nil)
				h.publish(f)
				f.release()
				read.Wait()
			}
			b.StopTimer()
			h.close()
			done.Wait()
			if h.frames.lent != 0 || h.droppedCount() != 0 {
				b.Fatalf("%d buffers out, %d frames dropped", h.frames.lent, h.droppedCount())
			}
			b.ReportMetric(float64(h.frames.encodes[kindBodies])/float64(b.N), "encodes/frame")
		})
	}
}

// bodiesLine is the line a ?bodies=1 writer sends for snap.
func bodiesLine(b *testing.B, snap *core.Snapshot) []byte {
	line, err := snap.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	return append(line, '\n')
}
