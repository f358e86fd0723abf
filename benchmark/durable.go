package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"upcbh/internal/arena"
	"upcbh/internal/core"
	"upcbh/internal/serve"
	"upcbh/internal/store"
)

// streamDurable uses the serve layer the other way round — long-lived
// egress instead of short requests — on top of the whole durability
// stack. Every round: a fresh store and server with auto-checkpoints,
// one session streamed with bodies to T subscribers until its terminal
// frame, Shutdown, re-open of the same directory, boot recovery of the
// newest checkpoint, and a second stream of the steps redone after it.
var streamDurable = workloadDef{
	name:   "stream-durable",
	why:    "the only workload where arena, store, hub fan-out, body gather and per-subscriber JSON encoding do the work, and where shutdown, store open and recovery are on the clock",
	setups: 15,
	setup:  setupDurable,
}

type durableSizes struct{ n, steps, ckptEvery int }

func durableSizesFor(c *config) durableSizes {
	if c.tiny {
		return durableSizes{n: 256, steps: 12, ckptEvery: 4}
	}
	return durableSizes{n: 2048, steps: 192, ckptEvery: 8}
}

func durableOptions(sz durableSizes, seed uint64) core.Options {
	o := core.DefaultOptions(sz.n, 1, core.LevelMergedBuild)
	o.ExecMode = core.ModeNative
	o.Steps = sz.steps
	o.Seed = seed
	return o
}

type durableInst struct {
	c  *config
	sz durableSizes

	// warm is the set-up's own server, torn down before the first round
	// (every round builds its own from nothing).
	warm func()

	// bufs are the subscribers' read buffers, one per leg and subscriber,
	// reused by every round: allocated per stream they would be the
	// largest and least steady part of peak_rss_mb, and they are the
	// benchmark's memory, not the service's.
	bufs [2][]subBuf

	fails []string
	// Round 0's options and terminal-frame bodies, for the in-process
	// reference run of check().
	refOpts   core.Options
	refBodies []byte

	// Accumulated over traced rounds.
	openMs, shutdownMs, recoverMs []float64
	streamMBps, frameBytes        []float64
	tracedRounds                  float64
	received, dropped             float64
	captured, persisted           float64
	writeFailures                 float64
}

func (in *durableInst) dir(name string) string {
	return filepath.Join(in.c.outDir, fmt.Sprintf("store-%d-%s", os.Getpid(), name))
}

func (in *durableInst) config(st *store.Store) serve.Config {
	return serve.Config{Shards: in.c.T, Store: st, CkptEvery: in.sz.ckptEvery}
}

// setupDurable times store open + server + create + first frame.
func setupDurable(c *config, tr *tracer, parent spanID) (instance, error) {
	in := &durableInst{c: c, sz: durableSizesFor(c)}
	dir := in.dir("setup")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	sp := tr.begin("store.Open", parent, -1)
	st, err := store.Open(dir, store.Options{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.New", parent, -1)
	ep, err := startEndpoint(in.config(st))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in.warm = func() {
		ep.stop()
		_ = os.RemoveAll(dir) // scratch; a leftover only wastes disk
	}
	cl := newClient(ep.base)
	defer cl.close()
	id, err := createSession(cl, tr, parent, durableOptions(in.sz, sessionSeed(c.seed, 0xfff, 0, 0)))
	if err != nil {
		in.close()
		return nil, err
	}
	// One step request with bodies is the first frame's work: gather,
	// encode, deliver.
	code, body, _, err := cl.do(tr, parent, -1, "step", "POST", "/sims/"+id+"/step?bodies=1", nil)
	if err := expect(http.StatusOK, code, body, err); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *durableInst) close() {
	if in.warm != nil {
		in.warm()
		in.warm = nil
	}
}

// createSession POSTs /sims with the full options and returns the id.
func createSession(cl *client, tr *tracer, parent spanID, o core.Options) (string, error) {
	optsJSON, err := json.Marshal(o)
	if err != nil {
		return "", err
	}
	req := append(append([]byte(`{"options":`), optsJSON...), '}')
	code, body, _, err := cl.do(tr, parent, -1, "create", "POST", "/sims", req)
	if err := expect(http.StatusCreated, code, body, err); err != nil {
		return "", err
	}
	var si struct {
		ID  string `json:"id"`
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &si); err != nil {
		return "", err
	}
	if si.Key != o.Key() {
		return "", fmt.Errorf("create: session key %q, want %q", si.Key, o.Key())
	}
	return si.ID, nil
}

// frame is one NDJSON line a subscriber received.
type frame struct {
	step int
	at   time.Time
	size int
}

// subResult is one subscriber's view of a stream.
type subResult struct {
	frames []frame
	bodies []byte // the `"bodies":[...]}` tail of the last frame
	err    error
}

var (
	stepPrefix   = []byte(`{"step":`)
	bodiesMarker = []byte(`"bodies":[`)
)

// subBuf is one subscriber's reusable memory: the line reader and the
// copy of the last frame.
type subBuf struct {
	rd   *bufio.Reader
	last []byte
}

// subscribe reads GET /sims/{id}/stream?bodies=1 to its end, parsing
// only each line's leading step number: the subscriber is the
// benchmark's own load and must stay cheap next to the server's work.
// The result's bodies alias buf until its next use.
func subscribe(tr *tracer, parent spanID, base, id string, buf *subBuf) (sr subResult) {
	sp := tr.begin("http.stream", parent, -1)
	defer tr.end(sp)
	cl := newClient(base)
	defer cl.close()
	resp, err := cl.hc.Get(base + "/sims/" + id + "/stream?bodies=1")
	if err != nil {
		sr.err = err
		return sr
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		sr.err = fmt.Errorf("stream: status %d", resp.StatusCode)
		return sr
	}
	rd, last := buf.rd, buf.last[:0]
	rd.Reset(resp.Body)
	for {
		fsp := tr.begin("stream.frame", sp, -1)
		line, err := rd.ReadSlice('\n')
		tr.end(fsp)
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil {
			sr.err = fmt.Errorf("stream: %w", err)
			return sr
		}
		rest, ok := bytes.CutPrefix(line, stepPrefix)
		comma := bytes.IndexByte(rest, ',')
		if !ok || comma < 0 {
			sr.err = fmt.Errorf("stream: frame starts %.40s", line)
			return sr
		}
		step, err := strconv.Atoi(string(rest[:comma]))
		if err != nil {
			sr.err = fmt.Errorf("stream: frame starts %.40s", line)
			return sr
		}
		if n := len(sr.frames); n > 0 && step <= sr.frames[n-1].step {
			sr.err = fmt.Errorf("stream: step %d after step %d", step, sr.frames[n-1].step)
			return sr
		}
		sr.frames = append(sr.frames, frame{step: step, at: time.Now(), size: len(line)})
		last = append(last[:0], line...)
	}
	buf.last = last
	if i := bytes.Index(last, bodiesMarker); i >= 0 {
		sr.bodies = last[i:]
	}
	return sr
}

// fanOut runs the subscribers of one leg on one session to the end of
// its stream: T-1 of them (at least one), so that on T cores the shard
// goroutine stepping the session has a core, as it has in a deployment
// whose clients are other machines.
func (in *durableInst) fanOut(tr *tracer, parent spanID, leg int, base, id string) []subResult {
	subs := make([]subResult, max(1, in.c.T-1))
	if in.bufs[leg] == nil {
		in.bufs[leg] = make([]subBuf, len(subs))
		for i := range in.bufs[leg] {
			// The reader must hold a whole line: a frame is ~310 bytes per body.
			in.bufs[leg][i].rd = bufio.NewReaderSize(nil, 512*in.sz.n+4096)
		}
	}
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := tr.lane("subscriber", parent, i+1)
			defer tr.end(lane)
			subs[i] = subscribe(tr, lane, base, id, &in.bufs[leg][i])
		}()
	}
	wg.Wait()
	return subs
}

// periods returns one latency per checkpoint period of a leg: the time
// the slowest subscriber waited for the `every` frames from one
// checkpoint step to the next, divided by `every` (ms per frame). A
// frame counts as delivered when the last subscriber that received it
// has it; a period whose boundary frame the hub dropped ends at the next
// frame that did arrive. Single inter-frame intervals are not the op:
// client and server share the cores, so frames reach a subscriber in
// bursts, and one frame in `every` waits for a checkpoint capture, which
// put the round's p90 on the edge between the two kinds of frame.
func periods(subs []subResult, every int) []float64 {
	delivered := map[int]time.Time{}
	maxStep, minStep := -1, math.MaxInt
	for _, s := range subs {
		for _, f := range s.frames {
			if f.at.After(delivered[f.step]) {
				delivered[f.step] = f.at
			}
			maxStep, minStep = max(maxStep, f.step), min(minStep, f.step)
		}
	}
	var out []float64
	var prev time.Time
	next := minStep // the next period boundary
	for k := minStep; k <= maxStep; k++ {
		at, ok := delivered[k]
		if !ok || k < next {
			continue
		}
		if k > minStep {
			out = append(out, float64(at.Sub(prev))/1e6/float64(every))
		}
		prev, next = at, next+every
	}
	return out
}

func (in *durableInst) round(r int, tr *tracer, parent spanID) roundResult {
	in.close() // the set-up's server, if still up
	// The newest checkpoint before the terminal step is what recovery
	// re-admits; the steps after it are redone on the second leg.
	wantDone := (in.sz.steps - 1) / in.sz.ckptEvery * in.sz.ckptEvery
	// One op per checkpoint period of either leg: fixed work, whatever
	// frames the hub drops for a slow subscriber (that is its design, and
	// serve.frame_delivery_ratio reports it).
	rr := roundResult{
		bodySteps: float64(in.sz.n * in.sz.steps),
		attempted: (in.sz.steps + in.sz.steps - wantDone) / in.sz.ckptEvery,
	}
	fail := func(format string, args ...any) roundResult {
		rr.failed++
		if len(in.fails) < 8 {
			in.fails = append(in.fails, fmt.Sprintf("round %d: ", r)+fmt.Sprintf(format, args...))
		}
		if rr.wall == 0 {
			rr.wall = 1 // a failed round has no throughput; keep it finite
		}
		return rr
	}
	dir := in.dir("r" + strconv.Itoa(r))
	if err := os.RemoveAll(dir); err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(dir)
	opts := durableOptions(in.sz, sessionSeed(in.c.seed, r, 0, 0))
	t0 := time.Now()

	// Leg 1: fresh store and server, stream the whole schedule.
	sp := tr.begin("store.Open", parent, -1)
	st, err := store.Open(dir, store.Options{})
	tr.end(sp)
	if err != nil {
		return fail("%v", err)
	}
	sp = tr.begin("serve.New", parent, -1)
	ep, err := startEndpoint(in.config(st))
	tr.end(sp)
	if err != nil {
		return fail("%v", err)
	}
	cl := newClient(ep.base)
	id, err := createSession(cl, tr, parent, opts)
	cl.close()
	if err != nil {
		ep.stop()
		return fail("%v", err)
	}
	leg1Start := time.Now()
	leg1 := in.fanOut(tr, parent, 0, ep.base, id)
	leg1Wall := time.Since(leg1Start).Seconds()
	sp = tr.begin("serve.Shutdown", parent, -1)
	tShut := time.Now()
	ep.stop() // drains the persister: every captured checkpoint is on disk
	shutdownMs := msSince(tShut)
	tr.end(sp)
	stats1 := ep.srv.Stats()

	// Leg 2: same directory, boot recovery, the steps after the newest
	// checkpoint are redone and streamed.
	sp = tr.begin("store.Open", parent, -1)
	tOpen := time.Now()
	st2, err := store.Open(dir, store.Options{})
	openMs := msSince(tOpen)
	tr.end(sp)
	if err != nil {
		return fail("%v", err)
	}
	sp = tr.begin("serve.New", parent, -1)
	tRec := time.Now()
	ep2, err := startEndpoint(in.config(st2))
	tr.end(sp)
	if err != nil {
		return fail("%v", err)
	}
	defer ep2.stop()
	cl = newClient(ep2.base)
	defer cl.close()
	code, body, _, err := cl.do(tr, parent, -1, "list", "GET", "/sims", nil)
	recoverMs := msSince(tRec)
	if err := expect(http.StatusOK, code, body, err); err != nil {
		return fail("%v", err)
	}
	var list struct {
		Sessions []struct {
			ID        string `json:"id"`
			Done      int    `json:"steps_done"`
			Recovered bool   `json:"recovered"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return fail("%v", err)
	}
	if len(list.Sessions) != 1 || !list.Sessions[0].Recovered || list.Sessions[0].Done != wantDone {
		return fail("recovery listed %+v, want one recovered session at step %d", list.Sessions, wantDone)
	}
	leg2 := in.fanOut(tr, parent, 1, ep2.base, list.Sessions[0].ID)
	code, body, _, err = cl.do(tr, parent, -1, "result", "GET", "/sims/"+list.Sessions[0].ID+"/result", nil)
	if err := expect(http.StatusOK, code, body, err); err != nil {
		return fail("%v", err)
	}
	rr.wall = time.Since(t0).Seconds()

	// Output checks of the round.
	rr.opsMs = append(periods(leg1, in.sz.ckptEvery), periods(leg2, in.sz.ckptEvery)...)
	var bytesIn float64
	var frames int
	for _, leg := range [][]subResult{leg1, leg2} {
		for i, s := range leg {
			if s.err != nil {
				return fail("subscriber %d: %v", i, s.err)
			}
			if n := len(s.frames); n == 0 || s.frames[n-1].step != in.sz.steps {
				return fail("subscriber %d: no terminal frame", i)
			}
			if !bytes.Equal(s.bodies, leg1[0].bodies) || len(s.bodies) == 0 {
				return fail("subscriber %d: final bodies differ from the uninterrupted stream's", i)
			}
			frames += len(s.frames)
		}
	}
	for _, s := range leg1 {
		for _, f := range s.frames {
			bytesIn += float64(f.size)
		}
	}
	ck := stats1.Checkpoints
	if ck == nil || ck.Persisted != ck.Captured || ck.Dropped != 0 || ck.Captured == 0 {
		return fail("checkpoints %+v: want persisted == captured > 0 and none dropped", ck)
	}
	if r == 0 {
		in.refOpts, in.refBodies = opts, append([]byte(nil), leg1[0].bodies...)
	}
	if tr != nil {
		in.tracedRounds++
		in.openMs = append(in.openMs, openMs)
		in.shutdownMs = append(in.shutdownMs, shutdownMs)
		in.recoverMs = append(in.recoverMs, recoverMs)
		in.streamMBps = append(in.streamMBps, bytesIn/1e6/leg1Wall)
		in.frameBytes = append(in.frameBytes, float64(leg1[0].frames[len(leg1[0].frames)-1].size))
		in.received += float64(frames)
		in.dropped += float64(stats1.SnapshotsDropped + ep2.srv.Stats().SnapshotsDropped)
		in.captured += float64(ck.Captured)
		in.persisted += float64(ck.Persisted)
		in.writeFailures += float64(stats1.Store.WriteFailures)
	}
	return rr
}

// check runs round 0's session uninterrupted and in process: native at
// one thread is exact, so the bodies the recovered stream ended on must
// serialize to the very same bytes.
func (in *durableInst) check() []string {
	fails := in.fails
	if in.refBodies == nil {
		return append(fails, "no round completed")
	}
	res, err := runOnce(in.refOpts)
	if err != nil {
		return append(fails, "reference run: "+err.Error())
	}
	want, err := json.Marshal(res.Bodies)
	if err != nil {
		return append(fails, "reference run: "+err.Error())
	}
	want = append(append([]byte(`"bodies":`), want...), "}\n"...)
	if !bytes.Equal(want, in.refBodies) {
		fails = append(fails, "recovered final bodies differ from an uninterrupted in-process run")
	}
	return fails
}

func (in *durableInst) layers(m metrics, tr *tracer, probe spanID) []string {
	m["store.open_ms"] = median(in.openMs)
	m["serve.shutdown_ms"] = median(in.shutdownMs)
	m["serve.recover_ms"] = median(in.recoverMs)
	m["serve.stream_mb_per_s"] = median(in.streamMBps)
	m["serve.frame_bytes"] = median(in.frameBytes)
	m["serve.frame_delivery_ratio"] = in.received / (in.received + in.dropped)
	m["serve.ckpt_persist_ratio"] = in.persisted / in.captured
	m["store.write_failures"] = in.writeFailures
	return in.probeLayers(m, tr, probe)
}

// probeLayers times the durability stack's exported calls directly, on
// a session of the workload's own size paused at its first checkpoint
// step.
func (in *durableInst) probeLayers(m metrics, tr *tracer, probe spanID) (fails []string) {
	const reps = 5
	timed := func(name string, n int, f func() error) float64 {
		var ms []float64
		for i := 0; i < n; i++ {
			sp := tr.begin(name, probe, -1)
			t0 := time.Now()
			err := f()
			ms = append(ms, msSince(t0))
			tr.end(sp)
			if err != nil {
				fails = append(fails, name+": "+err.Error())
				break
			}
		}
		return median(ms)
	}
	opts := durableOptions(in.sz, sessionSeed(in.c.seed, 0xffe, 0, 0))
	sim, err := core.New(opts)
	if err != nil {
		return []string{"probe session: " + err.Error()}
	}
	defer sim.Release()
	if err := sim.Step(in.sz.ckptEvery); err != nil {
		return []string{"probe session: " + err.Error()}
	}
	var snap *core.Snapshot
	m["core.snapshot_ms"] = timed("core.Snapshot", reps, func() (err error) { snap, err = sim.Snapshot(); return })
	m["serve.frame_encode_ms"] = timed("json.Marshal", reps, func() error { _, err := json.Marshal(snap); return err })
	var buf bytes.Buffer
	m["core.checkpoint_ms"] = timed("core.Checkpoint", reps, func() error { buf.Reset(); return sim.Checkpoint(&buf) })
	container := buf.Bytes()
	m["core.restore_ms"] = timed("core.Restore", 3, func() error {
		s, err := core.Restore(bytes.NewReader(container))
		if err == nil {
			s.Release()
		}
		return err
	})

	var ck *arena.Checkpoint
	m["arena.read_ckpt_ms"] = timed("arena.ReadCheckpoint", reps, func() (err error) {
		ck, err = arena.ReadCheckpoint(bytes.NewReader(container))
		return
	})
	if ck == nil {
		return
	}
	var regions []arena.NamedRegion
	var payload float64
	for _, r := range ck.Header.Regions {
		data, _ := ck.Region(r.Name)
		regions = append(regions, arena.NamedRegion{Name: r.Name, Data: data})
		if r.Name != "state" {
			// The JSON state region carries wall-clock floats whose text
			// length varies; the body heap and the ownership lists are
			// exact.
			payload += float64(len(data))
		}
	}
	m["core.checkpoint_bytes"] = payload
	var out bytes.Buffer
	m["arena.write_ckpt_ms"] = timed("arena.WriteCheckpoint", reps, func() error {
		out.Reset()
		return arena.WriteCheckpoint(&out, ck.Header.Key, ck.Header.Step, ck.Header.Env, regions)
	})
	m["arena.write_ckpt_mb_per_s"] = float64(len(container)) / 1e6 / (m["arena.write_ckpt_ms"] / 1e3)

	dir := in.dir("probe")
	_ = os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	var st *store.Store
	timed("store.Open", 1, func() (err error) { st, err = store.Open(dir, store.Options{}); return })
	if st == nil {
		return
	}
	m["arena.write_file_ckpt_ms"] = timed("arena.WriteFileCheckpoint", 3, func() error {
		return arena.WriteFileCheckpoint(filepath.Join(dir, "probe.container"), ck.Header.Key, ck.Header.Step, ck.Header.Env, regions)
	})
	var put []float64
	for i := 0; i < 8; i++ {
		sp := tr.begin("store.Put", probe, -1)
		t0 := time.Now()
		err := st.Put(ck.Header.Key, ck.Header.Step, container) // the entry must carry its container's own step
		put = append(put, msSince(t0))
		tr.end(sp)
		if err != nil {
			fails = append(fails, "store.Put: "+err.Error())
			break
		}
	}
	m["store.put_ms_p50"] = p50(put)
	m["store.put_ms_p90"] = p90(put)
	m["store.newest_ms"] = timed("store.Newest", reps, func() error { _, _, err := st.Newest(ck.Header.Key); return err })
	// Computed: checkpoints one round persists x this container's size.
	m["store.bytes_written"] = in.persisted / in.tracedRounds * float64(len(container))
	return fails
}
