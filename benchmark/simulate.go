package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"upcbh/internal/core"
	"upcbh/internal/verify"
)

// simulateLevels is the paper reproduction itself: ModeSimulate on 16
// emulated threads, four long-lived sessions at the paper's baseline,
// cached-tree, async and subspace levels. One op is a sweep step —
// Step(1) on each of the four.
var simulateLevels = workloadDef{
	name:   "simulate-levels",
	why:    "wall time is all internal/upc (scheduler, charged heap access, software cache, collectives) and core's pointer-cell paths; the flat kernel is never entered",
	setups: 15,
	setup:  setupSimulate,
}

var simLevels = [4]core.Level{core.LevelBaseline, core.LevelCacheTree, core.LevelAsync, core.LevelSubspace}

const simThreads = 16

// twinSteps is the length of the short fixed runs the determinism
// check, the cross-level check and the per-step operation counts come
// from: fixed, so the counts repeat exactly whatever the round count.
const twinSteps = 3

type simSizes struct{ n, warmup, sweeps int }

func simSizesFor(c *config) simSizes {
	if c.tiny {
		return simSizes{n: 256, warmup: 1, sweeps: 3}
	}
	return simSizes{n: 2048, warmup: 2, sweeps: 28}
}

type simInst struct {
	c       *config
	sz      simSizes
	sims    [4]*core.Sim
	stepErr error

	twinRes  [4]*core.Result
	twinErrs []string
	twinDone bool

	// Accumulated over traced rounds.
	levelMs [4][]float64
	sweepMs []float64
	allocs  []float64
}

func simOptions(n, steps int, level core.Level, seed uint64) core.Options {
	o := core.DefaultOptions(n, simThreads, level)
	o.ExecMode = core.ModeSimulate
	o.Steps = steps
	o.Seed = seed
	return o
}

func setupSimulate(c *config, tr *tracer, parent spanID) (instance, error) {
	sz := simSizesFor(c)
	in := &simInst{c: c, sz: sz}
	steps := max(sz.warmup+c.rounds*sz.sweeps, 3)
	for i, lv := range simLevels {
		sp := tr.begin("core.New", parent, -1)
		s, err := core.New(simOptions(sz.n, steps, lv, c.seed))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		in.sims[i] = s
	}
	for _, s := range in.sims {
		sp := tr.begin("core.Step", parent, -1)
		err := s.Step(sz.warmup)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *simInst) close() {
	for _, s := range in.sims {
		if s != nil {
			s.Release()
		}
	}
}

func (in *simInst) round(r int, tr *tracer, parent spanID) roundResult {
	sz := in.sz
	rr := roundResult{bodySteps: float64(len(simLevels) * sz.n * sz.sweeps)}
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	for i := 0; i < sz.sweeps; i++ {
		opID := r*sz.sweeps + i
		op := tr.begin("op.sweep", parent, opID)
		var sweep float64
		for l, s := range in.sims {
			sp := tr.begin("core.Step."+simLevels[l].String(), op, opID)
			t0 := time.Now()
			err := s.Step(1)
			d := msSince(t0)
			tr.end(sp)
			sweep += d
			if tr != nil {
				in.levelMs[l] = append(in.levelMs[l], d)
			}
			if err != nil {
				in.stepErr = err
				rr.failed++
			}
		}
		tr.end(op)
		rr.attempted++
		rr.opsMs = append(rr.opsMs, sweep)
		rr.wall += sweep / 1e3
	}
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		in.allocs = append(in.allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(sz.sweeps*len(simLevels)))
		in.sweepMs = append(in.sweepMs, p50(rr.opsMs))
	}
	return rr
}

// twins runs every level for twinSteps steps twice, from scratch, and
// keeps the first run's Results. The second run must serialize to the
// same bytes (simulate mode is deterministic, virtual clocks included),
// and every level's bodies must agree with the baseline's within the
// differential matrix's pairwise tolerance (DESIGN.md §7: 1e-9).
func (in *simInst) twins(tr *tracer, parent spanID) {
	if in.twinDone {
		return
	}
	in.twinDone = true
	for l, lv := range simLevels {
		var first []byte
		for pass := 0; pass < 2; pass++ {
			sp := tr.begin("core.Run."+lv.String(), parent, -1)
			res, err := runOnce(simOptions(in.sz.n, twinSteps, lv, in.c.seed))
			tr.end(sp)
			if err != nil {
				in.twinErrs = append(in.twinErrs, fmt.Sprintf("twin %s: %v", lv, err))
				return
			}
			data, err := json.Marshal(res)
			if err != nil {
				in.twinErrs = append(in.twinErrs, fmt.Sprintf("twin %s: %v", lv, err))
				return
			}
			if pass == 0 {
				first, in.twinRes[l] = data, res
			} else if !bytes.Equal(first, data) {
				in.twinErrs = append(in.twinErrs, fmt.Sprintf("level %s: two identical runs serialize differently", lv))
			}
		}
		if d := verify.MaxAccDivergence(in.twinRes[0].Bodies, in.twinRes[l].Bodies); !(d <= 1e-9) {
			in.twinErrs = append(in.twinErrs, fmt.Sprintf("level %s diverges from baseline by %g > 1e-9", lv, d))
		}
	}
}

func runOnce(o core.Options) (*core.Result, error) {
	s, err := core.New(o)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return s.Run()
}

func (in *simInst) check() []string {
	in.twins(nil, noSpan)
	fails := in.twinErrs
	if in.stepErr != nil {
		fails = append(fails, "Step: "+in.stepErr.Error())
	}
	for l, s := range in.sims {
		res, err := s.Finish()
		if err != nil {
			fails = append(fails, fmt.Sprintf("Finish %s: %v", simLevels[l], err))
			continue
		}
		for i := range res.Bodies {
			if p := res.Bodies[i].Pos; math.IsNaN(p.X+p.Y+p.Z) || math.IsInf(p.X+p.Y+p.Z, 0) {
				fails = append(fails, fmt.Sprintf("level %s: body %d left the finite range", simLevels[l], i))
				break
			}
		}
	}
	return fails
}

func (in *simInst) layers(m metrics, tr *tracer, probe spanID) []string {
	for l, lv := range simLevels {
		m["core.sim_step_ms."+lv.String()] = median(in.levelMs[l])
	}
	m["core.allocs_per_step.simulate"] = median(in.allocs)

	in.twins(tr, probe)
	var msgs, byts, gets, puts, barriers, locks, handoffs, yields float64
	for _, res := range in.twinRes {
		if res == nil {
			return nil // a twin failed: check() reports it, and the upc.* metrics stay unset
		}
		msgs += float64(res.Stats.Msgs)
		byts += float64(res.Stats.Bytes)
		gets += float64(res.Stats.RemoteGets)
		puts += float64(res.Stats.RemotePuts)
		barriers += float64(res.Stats.Barriers)
		locks += float64(res.Stats.LockAcqs)
		handoffs += float64(res.Sched.Handoffs)
		yields += float64(res.Sched.SpinYields)
	}
	// Totals of a twinSteps-step run of all four levels (its set-up
	// included) divided by twinSteps: exact, and identical between runs.
	m["upc.msgs_per_step"] = msgs / twinSteps
	m["upc.bytes_per_step"] = byts / twinSteps
	m["upc.remote_gets_per_step"] = gets / twinSteps
	m["upc.barriers_per_step"] = barriers / twinSteps
	m["upc.lock_acqs_per_step"] = locks / twinSteps
	m["upc.sched_handoffs_per_step"] = handoffs / twinSteps
	m["upc.sched_spin_yields_per_step"] = yields / twinSteps
	m["upc.wall_ns_per_remote_op"] = median(in.sweepMs) * 1e6 / ((gets + puts + msgs) / twinSteps)
	return nil
}
