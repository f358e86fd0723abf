package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is what one workload run is sized from. T = min(nproc, 4) is
// the only host-derived input: GOMAXPROCS, native threads, HTTP clients
// and stream subscribers all equal it.
type config struct {
	seed   uint64
	T      int
	rounds int    // R: rounds of fixed work per run
	tiny   bool   // test sizes: every workload shrinks to milliseconds
	outDir string // trace files, documents and the durable store live here

	// budget caps the measuring time: once it is spent (and minRounds
	// rounds are in) the run stops issuing rounds, so a slow host regime
	// cannot push a run past the driver's time limits. Zero means no cap.
	budget time.Duration
}

const minRounds = 5

// metrics maps a metric name to its value; units come from metricUnits.
type metrics map[string]float64

// roundResult is what one round of fixed work reports.
type roundResult struct {
	opsMs     []float64 // caller-observed latency of every operation, ms
	bodySteps float64   // bodies x time-steps the round completed
	wall      float64   // wall seconds those body-steps took
	attempted int
	failed    int
}

// instance is one set-up workload: it runs rounds, checks its outputs
// and, in a traced run, reports its per-layer metrics.
type instance interface {
	// round runs round r of fixed work. tr is nil on an untraced round;
	// parent is the round's span.
	round(r int, tr *tracer, parent spanID) roundResult
	// check verifies the outputs the rounds produced; every returned
	// string is one failed check.
	check() []string
	// layers adds the per-layer metrics this workload is the source of:
	// numbers accumulated over the traced rounds plus the probes that
	// need this workload's state. Called once, after the last round; a
	// probe that fails is returned like a failed check.
	layers(m metrics, tr *tracer, probe spanID) []string
	close()
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name string
	why  string
	// setups is how many timed set-ups a run makes (setup_s is their
	// median): cheap set-ups repeat more often so the median is steady.
	setups int
	// setup brings the workload from nothing to "first timed operation
	// can be issued", warm-up included.
	setup func(c *config, tr *tracer, parent spanID) (instance, error)
}

var workloads = []workloadDef{nativeScale, simulateLevels, serveChurn, streamDurable}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// report is the outcome of one workload run.
type report struct {
	e2e       metrics
	layers    metrics
	attempted int
	failed    int
	failures  []string
	rounds    int
	samples   map[string]int
	// roundP50, roundP90 and roundThr are each round's step_ms_p50,
	// step_ms_p90 and body_steps_per_s, kept in the document so a
	// drifting host shows.
	roundP50, roundP90, roundThr []float64
}

// runWorkload sets the workload up, runs the rounds, checks outputs,
// repeats the set-up until it has been timed w.setups times, and
// computes the metrics. tr is nil on an untraced run; on a traced run
// half the rounds record spans and half do not, which is what
// trace.overhead_ratio compares. withChecks is false for the one-round
// side runs a traced run makes only to source another workload's
// per-layer metrics.
func runWorkload(w workloadDef, c *config, tr *tracer, withChecks bool) (*report, error) {
	rep := &report{e2e: metrics{}, layers: metrics{}, samples: map[string]int{}}
	top := tr.lane(w.name, noSpan, 0)
	defer tr.end(top)

	// The first set-up is the one the rounds run on. The remaining timed
	// set-ups come after the rounds: each leaves recycled heap chunks and
	// arenas behind, and whether the next one finds them is luck that
	// would otherwise decide peak_rss_mb.
	timedSetup := func() (instance, float64, error) {
		sp := tr.begin("setup", top, -1)
		defer tr.end(sp)
		t0 := time.Now()
		inst, err := w.setup(c, tr, sp)
		return inst, time.Since(t0).Seconds(), err
	}
	inst, cold, err := timedSetup()
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer func() { inst.close() }()
	setupS := []float64{cold}
	rep.layers["process.setup_cold_s"] = cold

	var opRounds [][]float64
	var thr, tracedP50, untracedP50 []float64
	var bodySteps float64
	before := readProc()
	start := time.Now()
	for r := 0; r < c.rounds; r++ {
		if c.budget > 0 && r >= minRounds && time.Since(start) > c.budget {
			break
		}
		// Traced and untraced rounds alternate as T U U T: a step time that
		// drifts over the run (the first round is the least warm) then
		// biases adjacent pairs in opposite directions.
		rtr := tr
		if r%4 == 1 || r%4 == 2 {
			rtr = nil
		}
		// Every round starts from a collected heap, as testing.B starts
		// every benchmark: when the collector last ran is otherwise the
		// largest run-to-run difference in peak_rss_mb and in the tail.
		runtime.GC()
		sp := rtr.begin("round", top, -1)
		rr := inst.round(r, rtr, sp)
		rtr.end(sp)
		opRounds = append(opRounds, rr.opsMs)
		thr = append(thr, rr.bodySteps/rr.wall)
		bodySteps += rr.bodySteps
		rep.attempted += rr.attempted
		rep.failed += rr.failed
		rep.samples["ops"] += len(rr.opsMs)
		if rtr != nil {
			tracedP50 = append(tracedP50, p50(rr.opsMs))
		} else {
			untracedP50 = append(untracedP50, p50(rr.opsMs))
		}
	}
	wall := time.Since(start).Seconds()
	after := readProc()
	rep.rounds = len(opRounds)
	rep.roundThr = thr
	for _, ops := range opRounds {
		rep.roundP50 = append(rep.roundP50, p50(ops))
		rep.roundP90 = append(rep.roundP90, p90(ops))
	}

	rep.e2e["step_ms_p50"] = median(rep.roundP50)
	rep.e2e["step_ms_p90"] = median(rep.roundP90)
	rep.e2e["body_steps_per_s"] = median(thr)
	// Read before the output checks: their reference runs are the
	// benchmark's memory, not the workload's.
	rep.e2e["peak_rss_mb"] = peakRSSMB()

	if tr != nil {
		probe := tr.begin("probe", top, -1)
		for _, f := range inst.layers(rep.layers, tr, probe) {
			rep.failures = append(rep.failures, w.name+": "+f)
			rep.failed++
		}
		tr.end(probe)
		after.processMetrics(rep.layers, before, wall, bodySteps)
		// Adjacent rounds see the same host regime, so the median of
		// their ratios is steadier than the ratio of two medians.
		var ratios []float64
		for i := range min(len(tracedP50), len(untracedP50)) {
			ratios = append(ratios, tracedP50[i]/untracedP50[i])
		}
		rep.layers["trace.overhead_ratio"] = median(ratios)
	}
	if withChecks {
		for _, f := range inst.check() {
			rep.failures = append(rep.failures, w.name+": "+f)
			rep.failed++
		}
		rep.attempted++ // the output check is one more attempted operation
	}
	// setup_s is an end-to-end metric: only a full untraced run repeats
	// the set-up.
	for i := 1; i < w.setups && tr == nil && !c.tiny; i++ {
		inst.close()
		runtime.GC() // every repeat starts from the same heap state
		next, s, err := timedSetup()
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		inst = next
		setupS = append(setupS, s)
	}
	rep.e2e["setup_s"] = median(setupS)
	rep.samples["setups"] = len(setupS)
	return rep, nil
}

// procSample is the process- and host-level state read before and after
// the timed rounds.
type procSample struct {
	cpu                  float64 // user+system CPU seconds of this process
	gcCycles             uint32
	gcPauseNs            uint64
	totalAlloc           uint64
	hostSteal, hostTotal float64 // /proc/stat jiffies, all CPUs
}

func readProc() procSample {
	var ps procSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		ps.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.gcCycles, ps.gcPauseNs, ps.totalAlloc = ms.NumGC, ms.PauseTotalNs, ms.TotalAlloc
	// First line of /proc/stat: cpu user nice system idle iowait irq softirq steal ...
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(data), "\n")
		for i, f := range strings.Fields(line) {
			v, err := strconv.ParseFloat(f, 64)
			if i == 0 || err != nil {
				continue
			}
			if i <= 8 {
				ps.hostTotal += v
			}
			if i == 8 {
				ps.hostSteal = v
			}
		}
	}
	return ps
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// processMetrics fills the process.* metrics from the deltas between
// two samples taken around the timed rounds.
func (after procSample) processMetrics(m metrics, before procSample, wall, bodySteps float64) {
	m["process.cpu_s_per_mbody_step"] = (after.cpu - before.cpu) / (bodySteps / 1e6)
	m["process.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	m["process.gc_pause_ms_total"] = float64(after.gcPauseNs-before.gcPauseNs) / 1e6
	m["process.heap_alloc_mb_per_s"] = float64(after.totalAlloc-before.totalAlloc) / 1e6 / wall
	m["process.steal_pct"] = 0
	if dt := after.hostTotal - before.hostTotal; dt > 0 {
		m["process.steal_pct"] = 100 * (after.hostSteal - before.hostSteal) / dt
	}
	m["process.cpu_pressure_avg10"] = cpuPressureAvg10()
}

// cpuPressureAvg10 reads the "some avg10" figure of /proc/pressure/cpu:
// the share of the last 10 s in which some task waited for a CPU, so a
// noisy host is recognisable in the record. 0 where PSI is unavailable.
func cpuPressureAvg10() float64 {
	data, err := os.ReadFile("/proc/pressure/cpu")
	if err != nil {
		return 0
	}
	for _, f := range strings.Fields(string(data)) {
		if v, ok := strings.CutPrefix(f, "avg10="); ok {
			x, _ := strconv.ParseFloat(v, 64)
			return x
		}
	}
	return 0
}

// peakRSSMB is ru_maxrss of this process (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }
