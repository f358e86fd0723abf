// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the engine, the simulator and bhserve, five end-to-end
// metrics per workload and, from a separate traced run, a per-layer
// budget. See README.md for the metric tables and the rules for using
// them; BENCHMARK.json at the repository root is the machine-readable
// contract.
//
//	go run -C benchmark . [-seed N] [-seconds S] [-trace 0|1]   whole suite, one fresh process per workload
//	go run -C benchmark . -workload NAME ...                   one workload, result as the last line
//	go run -C benchmark . -selfcheck K                         2K suite runs as two interleaved sets, compared
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"upcbh/internal/hostenv"
)

// metricDef is one row of the metric tables; the same rows are in
// BENCHMARK.json (a test keeps the two identical).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"step_ms_p90", "ms", "lower", 0.25},
	{"body_steps_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

var perLayer = []metricDef{
	{Name: "nbody.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "nbody.interact_ns", Unit: "ns", Better: "lower"},

	{Name: "octree.build_ms", Unit: "ms", Better: "lower"},
	{Name: "octree.force_ms", Unit: "ms", Better: "lower"},
	{Name: "octree.force_ns_per_interaction", Unit: "ns", Better: "lower"},
	{Name: "octree.interactions_per_body", Unit: "count", Better: "lower"},
	{Name: "octree.nodes", Unit: "count", Better: "lower"},
	{Name: "octree.flat_bytes", Unit: "B", Better: "lower"},
	{Name: "octree.bytes_per_interaction", Unit: "B", Better: "lower"},

	{Name: "upc.msgs_per_step", Unit: "count", Better: "lower"},
	{Name: "upc.bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "upc.remote_gets_per_step", Unit: "count", Better: "lower"},
	{Name: "upc.barriers_per_step", Unit: "count", Better: "lower"},
	{Name: "upc.lock_acqs_per_step", Unit: "count", Better: "lower"},
	{Name: "upc.sched_handoffs_per_step", Unit: "count", Better: "lower"},
	{Name: "upc.sched_spin_yields_per_step", Unit: "count", Better: "lower"},
	{Name: "upc.barrier_ns", Unit: "ns", Better: "lower"},
	{Name: "upc.remote_get_ns", Unit: "ns", Better: "lower"},
	{Name: "upc.gather64_ns", Unit: "ns", Better: "lower"},
	{Name: "upc.broadcast_ns", Unit: "ns", Better: "lower"},
	{Name: "upc.lock_ns", Unit: "ns", Better: "lower"},
	{Name: "upc.wall_ns_per_remote_op", Unit: "ns", Better: "lower"},

	{Name: "core.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_tree_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_cofm_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_partition_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_redist_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_force_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_advance_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step_residual_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step_ms_1t", Unit: "ms", Better: "lower"},
	{Name: "core.par_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "core.force_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "core.sim_step_ms.baseline", Unit: "ms", Better: "lower"},
	{Name: "core.sim_step_ms.cache", Unit: "ms", Better: "lower"},
	{Name: "core.sim_step_ms.async", Unit: "ms", Better: "lower"},
	{Name: "core.sim_step_ms.subspace", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_meta_us", Unit: "us", Better: "lower"},
	{Name: "core.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "core.allocs_per_step.native", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_step.simulate", Unit: "count", Better: "lower"},

	{Name: "arena.read_ckpt_ms", Unit: "ms", Better: "lower"},
	{Name: "arena.write_ckpt_ms", Unit: "ms", Better: "lower"},
	{Name: "arena.write_ckpt_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "arena.write_file_ckpt_ms", Unit: "ms", Better: "lower"},

	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.put_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "store.newest_ms", Unit: "ms", Better: "lower"},
	{Name: "store.bytes_written", Unit: "B", Better: "lower"},
	{Name: "store.write_failures", Unit: "count", Better: "lower"},

	{Name: "serve.http_floor_us", Unit: "us", Better: "lower"},
	{Name: "serve.step_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.step_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.create_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.result_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.delete_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.sessions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.cache_hits", Unit: "count", Better: "lower"},
	{Name: "serve.frame_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.frame_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.stream_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "serve.frame_delivery_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.ckpt_persist_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.shutdown_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.recover_ms", Unit: "ms", Better: "lower"},

	{Name: "process.setup_cold_s", Unit: "s", Better: "lower"},
	{Name: "process.cpu_s_per_mbody_step", Unit: "s", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "process.heap_alloc_mb_per_s", Unit: "MB/s", Better: "lower"},
	{Name: "process.cpu_pressure_avg10", Unit: "%", Better: "lower"},
	{Name: "process.steal_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// roundSeconds is the nominal length of one round of fixed work; the
// round count of a run is -seconds divided by it.
const roundSeconds = 1.5

// tracedRounds is the round count of the selected workload in a traced
// run, half of them traced and half untraced (trace.overhead_ratio).
const tracedRounds = 6

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// document is the full record of one workload run, written next to the
// trace: the result plus everything needed to judge it later.
type document struct {
	Env      hostenv.Env            `json:"env"`
	T        int                    `json:"T"`
	Rounds   int                    `json:"R"`
	Seed     uint64                 `json:"seed"`
	Workload string                 `json:"workload"`
	Trace    bool                   `json:"trace"`
	Samples  map[string]int         `json:"samples"`
	RoundP50 []float64              `json:"round_step_ms_p50"`
	RoundP90 []float64              `json:"round_step_ms_p90"`
	RoundThr []float64              `json:"round_body_steps_per_s"`
	Failures []string               `json:"failures,omitempty"`
	Spans    map[string]spanSummary `json:"spans,omitempty"`
	result
}

func threads() int { return min(runtime.NumCPU(), 4) }

func newConfig(seed uint64, seconds int, outDir string) *config {
	return &config{
		seed:   seed,
		T:      threads(),
		rounds: min(max(int(math.Round(float64(seconds)/roundSeconds)), 1), 12),
		outDir: outDir,
		budget: time.Duration(float64(seconds) * 1.5 * float64(time.Second)),
	}
}

// runOne runs one workload in this process. Untraced, it reports the
// end-to-end metrics. Traced, it reports every per-layer metric: the
// selected workload runs tracedRounds rounds, half traced and half
// untraced, and each other workload runs one traced round, because each
// per-layer metric is taken from the workload that exercises its layer.
func runOne(c *config, name string, trace bool) (*document, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(c.T)
	doc := &document{T: c.T, Seed: c.seed, Workload: name, Trace: trace}
	doc.Metrics = map[string]metricValue{}
	defs := endToEnd
	values := metrics{}

	if !trace {
		rep, err := runWorkload(w, c, nil, true)
		if err != nil {
			return nil, err
		}
		doc.fill(rep)
		values = rep.e2e
	} else {
		defs = perLayer
		tr := newTracer()
		tc := *c
		tc.rounds = min(c.rounds, tracedRounds)
		rep, err := runWorkload(w, &tc, tr, true)
		if err != nil {
			return nil, err
		}
		doc.fill(rep)
		side := tc
		side.rounds = 1
		for _, other := range workloads {
			if other.name == name {
				continue
			}
			orep, err := runWorkload(other, &side, tr, false)
			if err != nil {
				return nil, err
			}
			doc.Attempted += orep.attempted
			doc.Failed += orep.failed
			doc.Failures = append(doc.Failures, orep.failures...)
			maps.Copy(values, orep.layers)
		}
		standaloneProbes(c, values, tr)
		maps.Copy(values, rep.layers) // process.* and trace.* describe the selected workload
		doc.Spans = tr.summary()
		if err := tr.writeChrome(filepath.Join(c.outDir, "trace."+name+".json")); err != nil {
			return nil, err
		}
	}

	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			doc.Failures = append(doc.Failures, fmt.Sprintf("metric %s has no finite value", d.Name))
			doc.Failed++
			v = 0
		}
		doc.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	doc.Correct = doc.Failed == 0
	doc.Env = hostenv.Capture()
	return doc, nil
}

func (d *document) fill(rep *report) {
	d.Rounds = rep.rounds
	d.Samples = rep.samples
	d.RoundP50, d.RoundP90, d.RoundThr = rep.roundP50, rep.roundP90, rep.roundThr
	d.Attempted = rep.attempted
	d.Failed = rep.failed
	d.Failures = rep.failures
}

func docPath(outDir, workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", workload, t))
}

func (d *document) write(outDir string) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(docPath(outDir, d.Workload, d.Trace), data, 0o644)
}

// print writes every metric by name with its unit, then the failures.
func (d *document) print() {
	fmt.Printf("# %s  seed=%d T=%d R=%d trace=%t  %s, %d CPUs, GOMAXPROCS %d, %s\n",
		d.Workload, d.Seed, d.T, d.Rounds, d.Trace, d.Env.GoVersion, d.Env.NumCPU, d.Env.GOMAXPROCS, d.Env.CPUModel)
	names := make([]string, 0, len(d.Metrics))
	for k := range d.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %16.6g %s\n", k, d.Metrics[k].Value, d.Metrics[k].Unit)
	}
	fmt.Printf("ops_attempted %d  ops_failed %d  samples %v\n", d.Attempted, d.Failed, d.Samples)
	for _, f := range d.Failures {
		fmt.Println("FAILED:", f)
	}
}

// suite runs every workload in a fresh process of this binary (clean
// heap, clean ru_maxrss) and returns their documents.
func suite(seed uint64, seconds int, trace bool, outDir string) ([]*document, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	var docs []*document
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", t, "-out", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		var exit *exec.ExitError
		if runErr != nil && !errors.As(runErr, &exit) {
			return nil, fmt.Errorf("%s: %w", w.name, runErr)
		}
		// A failed check exits non-zero but still leaves its document.
		data, err := os.ReadFile(docPath(outDir, w.name, trace))
		if err != nil {
			return nil, fmt.Errorf("%s: %w (run: %v)", w.name, err, runErr)
		}
		doc := &document{}
		if err := json.Unmarshal(data, doc); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func main() {
	workload := flag.String("workload", "", "run one workload in this process: native-scale, simulate-levels, serve-churn or stream-durable (default: the whole suite)")
	seed := flag.Uint64("seed", 1, "workload seed; every body and session seed derives from it")
	seconds := flag.Int("seconds", 18, "measuring time of one workload run; fixes the number of rounds of fixed work")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes trace.<workload>.json")
	selfcheck := flag.Int("selfcheck", 0, "K > 0: run the untraced suite 2K times as two interleaved sets and compare them")
	outDir := flag.String("out", "out", "directory for documents, traces and the scratch checkpoint store")
	flag.Parse()

	switch {
	case *selfcheck > 0:
		if !selfCheck(*selfcheck, *seed, *seconds, *outDir) {
			os.Exit(1)
		}
	case *workload != "":
		doc, err := runOne(newConfig(*seed, *seconds, *outDir), *workload, *trace == 1)
		if err != nil {
			fatal(err)
		}
		doc.print()
		if err := doc.write(*outDir); err != nil {
			fatal(err)
		}
		last, _ := json.Marshal(doc.result)
		fmt.Println(string(last))
		if !doc.Correct {
			os.Exit(1)
		}
	default:
		docs, err := suite(*seed, *seconds, *trace == 1, *outDir)
		if err != nil {
			fatal(err)
		}
		data, _ := json.MarshalIndent(docs, "", " ")
		if err := os.WriteFile(filepath.Join(*outDir, "suite.json"), data, 0o644); err != nil {
			fatal(err)
		}
		for _, d := range docs {
			if !d.Correct {
				os.Exit(1)
			}
		}
	}
}
