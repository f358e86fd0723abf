package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
	"unsafe"

	"upcbh/internal/core"
	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/verify"
)

// nativeScale is the paper's problem on real cores: a Plummer sphere at
// LevelMergedBuild under ModeNative, stepped by direct Sim.Step(1) calls
// on two long-lived sessions, one with T threads (the measured one) and
// one with a single thread (the HPC baseline that turns serial-section
// work into core.par_efficiency).
var nativeScale = workloadDef{
	name:   "native-scale",
	why:    "force kernel and flat octree are ~88% of the step, so kernel, flatten, barrier and arena work shows here and nowhere in simulate-levels",
	setups: 5,
	setup:  setupNative,
}

// nativeSizes fixes the work of one round. The T-thread session takes
// tSteps ops per round (>= 24, so the round's p90 has samples beyond
// it). The 1-thread twin takes oneSteps < tSteps steps, in round 0 (so
// the T session passes the twin's end-of-round-0 step inside round 0:
// the cross-check point) and in every traced round (core.step_ms_1t);
// the end-to-end metrics are the T session's, so untraced rounds after
// the first spend no time on the twin.
type nativeSizes struct{ n, warmup, tSteps, oneSteps, maxRounds int }

func nativeSizesFor(c *config) nativeSizes {
	if c.tiny {
		return nativeSizes{n: 1024, warmup: 2, tSteps: 6, oneSteps: 3, maxRounds: c.rounds}
	}
	return nativeSizes{n: 16384, warmup: 10, tSteps: 32, oneSteps: 10, maxRounds: c.rounds}
}

type nativeInst struct {
	c    *config
	sz   nativeSizes
	simT *core.Sim
	sim1 *core.Sim
	opts core.Options // the T-thread session's

	// Cross-check state: both sessions' bodies at the same step.
	checkT, check1 []nbody.Body
	stepErr        error

	newMs float64 // core.New of the T-thread session

	// Accumulated over traced rounds.
	oneMs      [][]float64 // 1-thread step latency per round
	tMs        [][]float64
	residualMs []float64
	phaseMs    [core.NumPhases][]float64
	allocs     []float64 // heap objects allocated per T-thread step
	oct        octreeProbe
}

func nativeOptions(n, threads, steps int, seed uint64) core.Options {
	o := core.DefaultOptions(n, threads, core.LevelMergedBuild)
	o.ExecMode = core.ModeNative
	o.Steps = steps
	o.Warmup = 0 // every step's phase times are recorded
	o.Seed = seed
	return o
}

func setupNative(c *config, tr *tracer, parent spanID) (instance, error) {
	sz := nativeSizesFor(c)
	in := &nativeInst{c: c, sz: sz}
	steps := sz.warmup + sz.maxRounds*sz.tSteps
	in.opts = nativeOptions(sz.n, c.T, steps, c.seed)
	var err error
	sp := tr.begin("core.New", parent, -1)
	t0 := time.Now()
	in.simT, err = core.New(in.opts)
	in.newMs = msSince(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.Step", parent, -1)
	err = in.simT.Step(sz.warmup)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return in, nil
}

// startTwin builds and warms the 1-thread twin. No timed operation needs
// it, so it is not part of the timed set-up: round 0 starts it.
func (in *nativeInst) startTwin() error {
	var err error
	if in.sim1, err = core.New(nativeOptions(in.sz.n, 1, in.opts.Steps, in.c.seed)); err != nil {
		return err
	}
	return in.sim1.Step(in.sz.warmup)
}

func (in *nativeInst) close() {
	in.simT.Release()
	if in.sim1 != nil {
		in.sim1.Release()
	}
}

func (in *nativeInst) round(r int, tr *tracer, parent spanID) roundResult {
	sz := in.sz
	rr := roundResult{bodySteps: float64(sz.n * sz.tSteps)}
	if in.sim1 == nil {
		if err := in.startTwin(); err != nil {
			in.stepErr = err
			rr.failed++
			return rr
		}
	}
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	firstStep := in.simT.StepsDone()
	var stepSpans []spanID
	for i := 0; i < sz.tSteps; i++ {
		op := tr.begin("op.step", parent, firstStep+i)
		sp := tr.begin("core.Step", op, firstStep+i)
		t0 := time.Now()
		err := in.simT.Step(1)
		d := msSince(t0)
		tr.end(sp)
		tr.end(op)
		rr.attempted++
		if err != nil {
			rr.failed++
			in.stepErr = err
		}
		rr.opsMs = append(rr.opsMs, d)
		rr.wall += d / 1e3
		stepSpans = append(stepSpans, sp)
		if r == 0 && i == sz.oneSteps-1 {
			// The twin ends round 0 at this step: keep both states.
			if snap, err := in.simT.Snapshot(); err == nil {
				in.checkT = snap.Bodies
			}
		}
	}
	if tr != nil {
		// After the round's last op, so the probe's cache footprint
		// cannot slow an op of a traced round.
		in.oct.run(in.simT, in.opts, tr, parent)
	}
	var one []float64
	for i := 0; i < sz.oneSteps && (r == 0 || tr != nil); i++ {
		sp := tr.begin("core.Step.1t", parent, -1)
		t0 := time.Now()
		err := in.sim1.Step(1)
		one = append(one, msSince(t0))
		tr.end(sp)
		rr.attempted++
		if err != nil {
			rr.failed++
			in.stepErr = err
		}
	}
	if r == 0 {
		if snap, err := in.sim1.Snapshot(); err == nil {
			in.check1 = snap.Bodies
		}
	}
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		in.allocs = append(in.allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(sz.tSteps+len(one)))
		in.oneMs = append(in.oneMs, one)
		in.tMs = append(in.tMs, rr.opsMs)
		in.recordPhases(tr, firstStep, stepSpans, rr.opsMs)
	}
	return rr
}

// recordPhases lays the engine's own per-phase times (max over threads,
// from the session's snapshot) out as child spans of the Step call that
// produced them, so the Step span's self time is the residual — gate,
// park/resume, epoch spin — and the budget sums by construction.
func (in *nativeInst) recordPhases(tr *tracer, firstStep int, stepSpans []spanID, stepMs []float64) {
	meta, err := in.simT.SnapshotMeta()
	if err != nil {
		return
	}
	for i, sp := range stepSpans {
		ph := meta.StepPhases[firstStep+i]
		at, _ := tr.bounds(sp)
		var sum float64
		for p, sec := range ph {
			in.phaseMs[p] = append(in.phaseMs[p], sec*1e3)
			sum += sec * 1e3
			if sec > 0 {
				end := at + int64(sec*1e9)
				tr.add("core.phase."+phaseKeys[p], sp, firstStep+i, at, end)
				at = end
			}
		}
		in.residualMs = append(in.residualMs, stepMs[i]-sum)
	}
}

var phaseKeys = [core.NumPhases]string{"tree", "cofm", "partition", "redist", "force", "advance"}

func (in *nativeInst) check() []string {
	var fails []string
	if in.stepErr != nil {
		fails = append(fails, "Step: "+in.stepErr.Error())
	}
	if len(in.checkT) == 0 || len(in.checkT) != len(in.check1) {
		return append(fails, "cross-check snapshots missing")
	}
	// T threads and 1 thread must agree: only the summation order of the
	// merged build differs between them.
	if d := verify.MaxAccDivergence(in.checkT, in.check1); !(d <= 1e-6) {
		fails = append(fails, fmt.Sprintf("%d-thread vs 1-thread accelerations diverge by %g > 1e-6", in.c.T, d))
	}
	init, err := nbody.GenerateScenario(in.opts.Scenario, in.opts.Bodies, in.opts.Seed)
	if err != nil {
		return append(fails, err.Error())
	}
	// DESIGN.md §7's conservation band.
	cons, err := verify.CheckConservation(init, in.checkT, in.opts.Eps)
	if err != nil {
		return append(fails, err.Error())
	}
	if !(cons.EnergyDrift <= 2e-2) || !(cons.MomentumDrift <= 1e-2) {
		fails = append(fails, fmt.Sprintf("conservation: energy drift %g (band 2e-2), momentum drift %g (band 1e-2)",
			cons.EnergyDrift, cons.MomentumDrift))
	}
	return fails
}

func (in *nativeInst) layers(m metrics, tr *tracer, probe spanID) []string {
	// The c-of-m phase is folded into the tree phase at LevelMergedBuild
	// and reads 0; it is reported so the six phases and the residual sum
	// to the step.
	for p, key := range phaseKeys {
		m["core.phase_"+key+"_ms"] = median(in.phaseMs[p])
	}
	m["core.new_ms"] = in.newMs
	m["core.step_residual_ms"] = median(in.residualMs)
	tStep := roundMedian(in.tMs, p50)
	m["core.step_ms_1t"] = roundMedian(in.oneMs, p50)
	m["core.par_efficiency"] = m["core.step_ms_1t"] / (float64(in.c.T) * tStep)
	m["core.allocs_per_step.native"] = median(in.allocs)
	in.oct.report(m)

	// Per-thread force time is only in the Result. The rounds are over,
	// so the measured session can finish; check() reads saved snapshots.
	sp := tr.begin("core.Finish", probe, -1)
	res, err := in.simT.Finish()
	tr.end(sp)
	if err != nil {
		return []string{"Finish: " + err.Error()}
	}
	var maxF, sumF float64
	for _, th := range res.PerThread {
		f := th.Phases[core.PhaseForce]
		maxF = math.Max(maxF, f)
		sumF += f
	}
	m["core.force_imbalance"] = maxF / (sumF / float64(len(res.PerThread)))
	return nil
}

// octreeProbe times the flat octree's build and force kernel on the
// measured session's own bodies, single-threaded, once per traced round.
type octreeProbe struct {
	ft                                 octree.FlatTree
	buildMs, forceMs, nsPerInteraction []float64
	interactionsPerBody, nodes, bytes  float64
	interactions                       float64
}

func (p *octreeProbe) run(sim *core.Sim, o core.Options, tr *tracer, parent spanID) {
	snap, err := sim.Snapshot()
	if err != nil {
		return
	}
	bodies := snap.Bodies
	sp := tr.begin("octree.Rebuild", parent, -1)
	t0 := time.Now()
	p.ft.Rebuild(bodies)
	p.buildMs = append(p.buildMs, msSince(t0))
	tr.end(sp)
	sp = tr.begin("octree.SolveInto", parent, -1)
	t0 = time.Now()
	p.ft.SolveInto(bodies, o.Theta, o.Eps)
	force := msSince(t0)
	tr.end(sp)
	p.forceMs = append(p.forceMs, force)
	var inter float64
	for i := range bodies {
		inter += bodies[i].Cost // SolveInto leaves each body's interaction count here
	}
	p.nsPerInteraction = append(p.nsPerInteraction, force*1e6/inter)
	if p.nodes == 0 {
		// Exact counts, taken once at a fixed step so they repeat
		// between runs whatever the number of rounds.
		p.interactionsPerBody = inter / float64(len(bodies))
		p.nodes = float64(len(p.ft.Nodes))
		// Computed from array lengths, not measured: the hot arrays a
		// force walk streams (node records, kid indices, packed leaves).
		p.bytes = float64(len(p.ft.Nodes))*float64(unsafe.Sizeof(octree.FlatNode{})) +
			float64(len(p.ft.Kids))*4 + float64(len(p.ft.PM))*float64(unsafe.Sizeof(octree.PosMass{}))
		p.interactions = inter
	}
}

func (p *octreeProbe) report(m metrics) {
	m["octree.build_ms"] = median(p.buildMs)
	m["octree.force_ms"] = median(p.forceMs)
	m["octree.force_ns_per_interaction"] = median(p.nsPerInteraction)
	m["octree.interactions_per_body"] = p.interactionsPerBody
	m["octree.nodes"] = p.nodes
	m["octree.flat_bytes"] = p.bytes
	// Tree bytes each interaction amortises if a force pass fetches every
	// tree byte once: a computed floor on memory traffic, not a measurement.
	m["octree.bytes_per_interaction"] = p.bytes / p.interactions
}
