package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"upcbh/internal/core"
	"upcbh/internal/nbody"
	"upcbh/internal/serve"
)

// serveChurn is bhserve request/response at its smallest: T closed-loop
// clients each looping create -> steps x POST /step -> GET /result ->
// DELETE on tiny native sessions, so roughly half of every op is HTTP
// decode, shard queue, session gate and JSON encode rather than physics.
var serveChurn = workloadDef{
	name:   "serve-churn",
	why:    "sessions so small that handler, shard-queue, gate park/resume and JSON cost dominate the step: serve-layer overhead shows here and nowhere else",
	setups: 15,
	setup:  setupChurn,
}

// churnSizes fixes a round (lifecycles per client) and the set-up's
// warm-up (warmup lifecycles per client: connections established, the
// server's paths hot).
type churnSizes struct{ n, steps, lifecycles, warmup, replayEvery int }

func churnSizesFor(c *config) churnSizes {
	if c.tiny {
		return churnSizes{n: 64, steps: 8, lifecycles: 4, warmup: 1, replayEvery: 2}
	}
	return churnSizes{n: 64, steps: 32, lifecycles: 220, warmup: 8, replayEvery: 50}
}

// churnOptions is one session's configuration: native, one thread,
// merged build. Every session gets its own seed, so the create cache
// never hits.
func churnOptions(sz churnSizes, seed uint64) core.Options {
	o := core.DefaultOptions(sz.n, 1, core.LevelMergedBuild)
	o.ExecMode = core.ModeNative
	o.Steps = sz.steps
	o.Seed = seed
	return o
}

// sessionSeed derives a unique body seed from the run seed and the
// session's coordinates (round 0xfff is the set-up's warm-up).
func sessionSeed(run uint64, round, client, lifecycle int) uint64 {
	return run<<40 | uint64(round)<<28 | uint64(client)<<20 | uint64(lifecycle)
}

// replay is one sampled lifecycle kept for the output check.
type replay struct {
	opts         core.Options
	interactions uint64
	bodies       []nbody.Body
}

type churnInst struct {
	c       *config
	sz      churnSizes
	ep      *endpoint
	clients []*client

	mu      sync.Mutex
	replays []replay
	errs    []string

	// Accumulated over traced rounds.
	createMs, resultMs [][]float64
	deleteMs           [][]float64
	stepMs             [][]float64
	sessionsPerS       []float64
}

func setupChurn(c *config, tr *tracer, parent spanID) (instance, error) {
	sz := churnSizesFor(c)
	sp := tr.begin("serve.New", parent, -1)
	ep, err := startEndpoint(serve.Config{Shards: c.T})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in := &churnInst{c: c, sz: sz, ep: ep}
	for i := 0; i < c.T; i++ {
		in.clients = append(in.clients, newClient(ep.base))
	}
	// Warm-up: every client runs a few whole lifecycles, so each holds an
	// established connection and the service is hot when rounds start.
	errs := make([]error, len(in.clients))
	var wg sync.WaitGroup
	for ci, cl := range in.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := tr.lane("client", parent, ci+1)
			defer tr.end(lane)
			for l := 0; l < sz.warmup && errs[ci] == nil; l++ {
				errs[ci] = in.lifecycle(cl, tr, lane, 0xfff, ci, l).err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

func (in *churnInst) close() {
	for _, cl := range in.clients {
		cl.close()
	}
	in.ep.stop()
}

// lifecycleResult is what one create..delete loop observed.
type lifecycleResult struct {
	stepMs                       []float64
	createMs, resultMs, deleteMs float64
	requests                     int
	err                          error
}

// lifecycle drives one session through create, its step requests,
// result and delete; a sampled lifecycle also fetches the final bodies
// (untimed) for the replay check.
func (in *churnInst) lifecycle(cl *client, tr *tracer, parent spanID, round, ci, l int) (lr lifecycleResult) {
	opts := churnOptions(in.sz, sessionSeed(in.c.seed, round, ci, l))
	opID := (round*len(in.clients)+ci)*in.sz.lifecycles + l
	optsJSON, err := json.Marshal(opts)
	if err != nil {
		lr.err = err
		return lr
	}
	req := append(append([]byte(`{"options":`), optsJSON...), '}')

	code, body, ms, err := cl.do(tr, parent, opID, "create", "POST", "/sims", req)
	lr.requests++
	if lr.err = expect(http.StatusCreated, code, body, err); lr.err != nil {
		return lr
	}
	lr.createMs = ms
	var si struct {
		ID       string `json:"id"`
		Key      string `json:"key"`
		CacheHit bool   `json:"cache_hit"`
	}
	if lr.err = json.Unmarshal(body, &si); lr.err != nil {
		return lr
	}
	if si.Key != opts.Key() || si.CacheHit {
		lr.err = fmt.Errorf("create: session key %q (cache_hit=%t), want %q", si.Key, si.CacheHit, opts.Key())
		return lr
	}
	path := "/sims/" + si.ID
	for k := 1; k <= opts.Steps; k++ {
		op := tr.begin("op.step", parent, opID)
		code, body, ms, err := cl.do(tr, op, opID, "step", "POST", path+"/step", nil)
		tr.end(op)
		lr.requests++
		if lr.err = expect(http.StatusOK, code, body, err); lr.err != nil {
			return lr
		}
		if want := `{"step":` + strconv.Itoa(k) + `,`; !bytes.HasPrefix(body, []byte(want)) {
			lr.err = fmt.Errorf("step %d: response starts %.40s", k, body)
			return lr
		}
		lr.stepMs = append(lr.stepMs, ms)
	}
	sampled := l%in.sz.replayEvery == in.sz.replayEvery-1
	var rp replay
	if sampled {
		code, body, _, err := cl.do(tr, parent, opID, "snapshot", "GET", path+"/snapshot?bodies=1", nil)
		lr.requests++
		if lr.err = expect(http.StatusOK, code, body, err); lr.err != nil {
			return lr
		}
		var snap core.Snapshot
		if lr.err = json.Unmarshal(body, &snap); lr.err != nil {
			return lr
		}
		rp = replay{opts: opts, bodies: snap.Bodies}
	}
	code, body, ms, err = cl.do(tr, parent, opID, "result", "GET", path+"/result", nil)
	lr.requests++
	if lr.err = expect(http.StatusOK, code, body, err); lr.err != nil {
		return lr
	}
	lr.resultMs = ms
	if sampled {
		var res struct {
			Interactions uint64 `json:"interactions"`
		}
		if lr.err = json.Unmarshal(body, &res); lr.err != nil {
			return lr
		}
		rp.interactions = res.Interactions
		in.mu.Lock()
		in.replays = append(in.replays, rp)
		in.mu.Unlock()
	}
	code, body, ms, err = cl.do(tr, parent, opID, "delete", "DELETE", path, nil)
	lr.requests++
	lr.err = expect(http.StatusNoContent, code, body, err)
	lr.deleteMs = ms
	return lr
}

func (in *churnInst) round(r int, tr *tracer, parent spanID) roundResult {
	sz := in.sz
	per := make([][]lifecycleResult, len(in.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, cl := range in.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := tr.lane("client", parent, ci+1)
			defer tr.end(lane)
			for l := 0; l < sz.lifecycles; l++ {
				per[ci] = append(per[ci], in.lifecycle(cl, tr, lane, r, ci, l))
			}
		}()
	}
	wg.Wait()
	rr := roundResult{wall: time.Since(t0).Seconds()}
	var create, result, del []float64
	for _, lrs := range per {
		for _, lr := range lrs {
			rr.attempted += lr.requests
			rr.opsMs = append(rr.opsMs, lr.stepMs...)
			if lr.err != nil {
				rr.failed++
				in.fail(lr.err.Error())
				continue
			}
			rr.bodySteps += float64(sz.n * sz.steps)
			create = append(create, lr.createMs)
			result = append(result, lr.resultMs)
			del = append(del, lr.deleteMs)
		}
	}
	if tr != nil {
		in.stepMs = append(in.stepMs, rr.opsMs)
		in.createMs = append(in.createMs, create)
		in.resultMs = append(in.resultMs, result)
		in.deleteMs = append(in.deleteMs, del)
		in.sessionsPerS = append(in.sessionsPerS, float64(len(create))/rr.wall)
	}
	return rr
}

func (in *churnInst) fail(msg string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.errs) < 8 {
		in.errs = append(in.errs, msg)
	}
}

// check replays every sampled lifecycle in process: the same options
// through core.New(...).Run() must give the interactions and the bodies
// the service returned (native at one thread is exact).
func (in *churnInst) check() []string {
	fails := in.errs
	if len(in.replays) == 0 {
		fails = append(fails, "no lifecycle was sampled for replay")
	}
	for _, rp := range in.replays {
		res, err := runOnce(rp.opts)
		if err != nil {
			fails = append(fails, "replay: "+err.Error())
			continue
		}
		if res.Interactions != rp.interactions {
			fails = append(fails, fmt.Sprintf("replay seed %d: %d interactions served, %d replayed",
				rp.opts.Seed, rp.interactions, res.Interactions))
		}
		if !slices.Equal(res.Bodies, rp.bodies) {
			fails = append(fails, fmt.Sprintf("replay seed %d: served bodies differ from the replay", rp.opts.Seed))
		}
	}
	st := in.ep.srv.Stats()
	if st.Sessions.Rejected != 0 || st.Sessions.CacheHits != 0 {
		fails = append(fails, fmt.Sprintf("server counted %d rejected requests and %d cache hits, want 0 and 0",
			st.Sessions.Rejected, st.Sessions.CacheHits))
	}
	return fails
}

func (in *churnInst) layers(m metrics, tr *tracer, probe spanID) []string {
	httpStep := roundMedian(in.stepMs, p50)
	m["serve.step_ms_p99"] = quantile(slices.Concat(in.stepMs...), 0.99)
	m["serve.create_ms_p50"] = roundMedian(in.createMs, p50)
	m["serve.result_ms_p50"] = roundMedian(in.resultMs, p50)
	m["serve.delete_ms_p50"] = roundMedian(in.deleteMs, p50)
	m["serve.sessions_per_s"] = median(in.sessionsPerS)
	st := in.ep.srv.Stats()
	m["serve.rejected"] = float64(st.Sessions.Rejected)
	m["serve.cache_hits"] = float64(st.Sessions.CacheHits)

	// The floor under any request: a handler that touches no shard.
	var floor []float64
	for i := 0; i < 500; i++ {
		_, _, ms, err := in.clients[0].do(tr, probe, -1, "healthz", "GET", "/healthz", nil)
		if err == nil {
			floor = append(floor, ms*1e3)
		}
	}
	m["serve.http_floor_us"] = p50(floor)

	// The same sessions stepped directly: what the HTTP path adds.
	var direct, meta []float64
	for i := 0; i < 40; i++ {
		s, err := core.New(churnOptions(in.sz, sessionSeed(in.c.seed, 0xffe, 0, i)))
		if err != nil {
			break
		}
		for k := 0; k < in.sz.steps; k++ {
			sp := tr.begin("core.Step", probe, -1)
			t0 := time.Now()
			err = s.Step(1)
			direct = append(direct, msSince(t0))
			tr.end(sp)
			sp = tr.begin("core.SnapshotMeta", probe, -1)
			t0 = time.Now()
			_, merr := s.SnapshotMeta()
			meta = append(meta, msSince(t0)*1e3)
			tr.end(sp)
			if err != nil || merr != nil {
				break
			}
		}
		s.Release()
	}
	m["serve.step_overhead_us"] = (httpStep - p50(direct)) * 1e3
	m["core.snapshot_meta_us"] = p50(meta)
	return nil
}
