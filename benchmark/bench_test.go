package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("an unmeasured statistic must be NaN, not 0")
	}
}

// A slow host regime covering a third of the rounds must not move the
// round-median, though it owns the pooled tail entirely.
func TestRoundMedianIgnoresASlowThird(t *testing.T) {
	var rounds [][]float64
	var pooled []float64
	for r := 0; r < 12; r++ {
		base := 10.0
		if r >= 8 {
			base = 15 // the slow regime
		}
		round := make([]float64, 30)
		for i := range round {
			round[i] = base + float64(i)/100
		}
		rounds = append(rounds, round)
		pooled = append(pooled, round...)
	}
	if got := roundMedian(rounds, p90); got > 10.3 {
		t.Errorf("median of round p90s = %v: moved by the slow third", got)
	}
	if got := p90(pooled); got < 15 {
		t.Errorf("pooled p90 = %v: expected it inside the slow regime", got)
	}
}

// Every span's children (as a union) plus its self time equal its
// duration, so a nested tree's self times sum to the root's span.
func TestSelfTimeAndResidualSumToTheRoot(t *testing.T) {
	tr := newTracer()
	root := tr.add("op", noSpan, 1, 0, 100)
	a := tr.add("layer.a", root, 1, 10, 40)
	tr.add("layer.a.inner", a, 1, 15, 25)
	tr.add("layer.b", root, 1, 50, 90)
	self := selfTimes(tr.spans)
	if want := []int64{30, 20, 10, 40}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	var sum int64
	for _, s := range self {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}

	// Children of concurrent callers overlap: the cover is their union.
	tr = newTracer()
	root = tr.add("round", noSpan, -1, 0, 100)
	tr.add("client", root, -1, 10, 60)
	tr.add("client", root, -1, 30, 80)
	if self := selfTimes(tr.spans); self[0] != 30 {
		t.Errorf("root self time with overlapping children = %d, want 30", self[0])
	}
	if sum := tr.summary()["client"]; sum.Count != 2 || sum.TotalMs != 100e-6 {
		t.Errorf("summary of the two client spans = %+v", sum)
	}
}

// A checkpoint period ends when the slowest subscriber has its boundary
// frame; a boundary frame the hub dropped ends it at the next arrival.
func TestPeriodsFollowTheSlowestSubscriber(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	fast := subResult{frames: []frame{{step: 0, at: at(0)}, {step: 1, at: at(1)}, {step: 2, at: at(2)}, {step: 3, at: at(3)}, {step: 4, at: at(4)}}}
	slow := subResult{frames: []frame{{step: 0, at: at(0)}, {step: 1, at: at(5)}, {step: 2, at: at(8)}, {step: 3, at: at(9)}, {step: 4, at: at(20)}}}
	if got, want := periods([]subResult{fast, slow}, 2), []float64{4, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("periods = %v, want %v", got, want)
	}
	dropped := subResult{frames: []frame{{step: 0, at: at(0)}, {step: 1, at: at(3)}, {step: 3, at: at(10)}, {step: 4, at: at(12)}}}
	if got, want := periods([]subResult{dropped}, 2), []float64{5, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("periods with frame 2 dropped = %v, want %v", got, want)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", tr.lane("y", noSpan, 0), 1)
	tr.end(sp)
	if sp != noSpan || tr.add("z", sp, 1, 0, 1) != noSpan || len(tr.summary()) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

func fakeSuite(step float64, attempted int) []*document {
	docs := make([]*document, len(workloads))
	for i, w := range workloads {
		d := &document{Workload: w.name}
		d.Attempted = attempted
		d.Metrics = map[string]metricValue{}
		for _, m := range endToEnd {
			d.Metrics[m.Name] = metricValue{Value: 100, Unit: m.Unit}
		}
		d.Metrics["step_ms_p50"] = metricValue{Value: step, Unit: "ms"}
		docs[i] = d
	}
	return docs
}

func TestCompareSets(t *testing.T) {
	a := [][]*document{fakeSuite(100, 50), fakeSuite(102, 50)}
	rows, countErrs := compareSets(a, [][]*document{fakeSuite(104, 50), fakeSuite(106, 50)})
	if len(countErrs) != 0 {
		t.Errorf("equal counts flagged: %v", countErrs)
	}
	for _, r := range rows {
		if !r.ok {
			t.Errorf("%s/%s: %.3f flagged against bound %.2f", r.workload, r.metric, r.rel, r.bound)
		}
	}

	rows, _ = compareSets(a, [][]*document{fakeSuite(130, 50), fakeSuite(132, 50)})
	flagged := 0
	for _, r := range rows {
		if !r.ok {
			flagged++
			if r.metric != "step_ms_p50" {
				t.Errorf("%s flagged, only step_ms_p50 moved", r.metric)
			}
		}
	}
	if flagged != len(workloads) {
		t.Errorf("a 26%% shift flagged %d rows, want one per workload", flagged)
	}

	// Counts are exact: off by one in a single run is a mismatch.
	if _, countErrs = compareSets(a, [][]*document{fakeSuite(100, 50), fakeSuite(100, 51)}); len(countErrs) != len(workloads) {
		t.Errorf("count mismatch reported %d times, want %d", len(countErrs), len(workloads))
	}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", c.PerLayer, perLayer)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %s / %s", i, c.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if flagDefault := 18; c.RunSeconds != flagDefault {
		t.Errorf("run_seconds %d, the -seconds default is %d", c.RunSeconds, flagDefault)
	}
}

func tinyConfig(t *testing.T) *config {
	return &config{seed: 7, T: threads(), rounds: 2, tiny: true, outDir: t.TempDir()}
}

func checkEmitted(t *testing.T, doc *document, defs []metricDef, nonZero bool) {
	t.Helper()
	for _, f := range doc.Failures {
		t.Errorf("%s: %s", doc.Workload, f)
	}
	if !doc.Correct || doc.Failed != 0 || doc.Attempted < 1 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", doc.Workload, doc.Correct, doc.Attempted, doc.Failed)
	}
	if len(doc.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, the contract lists %d", doc.Workload, len(doc.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := doc.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", doc.Workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (nonZero && m.Value == 0):
			t.Errorf("%s: %s = %v", doc.Workload, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", doc.Workload, d.Name, m.Unit, d.Unit)
		}
	}
}

// Every workload, tiny, untraced: all end-to-end metrics of
// BENCHMARK.json, finite and never 0, and every output check passing.
func TestSmokeEndToEnd(t *testing.T) {
	c := readContract(t)
	for _, w := range c.Workloads {
		doc, err := runOne(tinyConfig(t), w.Name, false)
		if err != nil {
			t.Fatal(err)
		}
		checkEmitted(t, doc, c.EndToEnd, true)
	}
}

// One tiny traced run: every per-layer metric of BENCHMARK.json, and a
// Chrome trace on disk.
func TestSmokeTraced(t *testing.T) {
	c := readContract(t)
	cfg := tinyConfig(t)
	doc, err := runOne(cfg, "serve-churn", true)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, doc, c.PerLayer, false)
	data, err := os.ReadFile(cfg.outDir + "/trace.serve-churn.json")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace file: %d events, err %v", len(trace.TraceEvents), err)
	}
	for _, name := range []string{"op.step", "http.step", "core.Step", "store.Put", "arena.ReadCheckpoint", "octree.SolveInto", "json.Marshal"} {
		if doc.Spans[name].Count == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
}
