package core

import (
	"math"
	"testing"
)

// simulateGolden1T holds the per-phase simulated times of the
// single-thread n=2048 configuration (DefaultOptions: 4 steps, 2
// measured) for every optimization level, captured from the pre-refactor
// tree (before the CostModel/ExecMode seam was extracted). Single-thread
// runs are fully deterministic — no lock, NIC, or merge races — so the
// Simulate backend must reproduce them essentially exactly; any drift
// means the refactor changed the cost model, not just its packaging.
//
// Regenerate with `go run ./internal/core/goldengen` after an
// intentional cost-model change.
var simulateGolden1T = map[string]PhaseTimes{
	"baseline":     {0.016181087999543597, 0.00099039999999339656, 0.0005034559999088084, 0, 0.35947125993326862, 0.00063487999977951404},
	"scalars":      {0.016009311999482856, 0.00099039999982231119, 0.00050337599996508331, 0, 0.30037277996437545, 0.00063487999977951404},
	"redistribute": {0.015694871999648363, 0.00099039999982231119, 0.00050337599996508331, 0, 0.30004509996454787, 0.00030719999995199032},
	"cache":        {0.015694871999648363, 0.00099039999982231119, 0.00050337599996508331, 0, 0.25857483198684655, 0.00030719999995199032},
	"merged":       {0.0050991839998797417, 0, 0.00050337599996508331, 0, 0.2585748319868435, 0.00030719999995199032},
	"async":        {0.0050991839998797417, 0, 0.00050337599996508331, 0, 0.25843982798696341, 0.00030719999995199032},
	"subspace":     {0.0056788959999595212, 0, 4.1120001119665517e-06, 0.00015449600000005947, 0.25843982798696546, 0.00030719999995199032},
}

// simulateGolden4T holds the per-phase simulated times of the 4-thread
// n=2048 configuration. The cooperative virtual-time scheduler (DESIGN.md
// §9) orders every lock acquisition and NIC reservation by virtual time,
// so multi-thread simulate runs are as deterministic as the 1-thread
// ones — byte-identical across repeated runs and under GOMAXPROCS=1 —
// and are pinned at the same tolerance.
//
// Regenerate with `go run ./internal/core/goldengen -threads 4`.
var simulateGolden4T = map[string]PhaseTimes{
	"baseline":     {0.75020849717475357, 0.087463548021240456, 0.086952732025778801, 0, 49.497572265715775, 0.16599098307133886},
	"scalars":      {0.61670318103331923, 0.08909906400577583, 0.086840490994877229, 0, 19.559779318477933, 0.16599098302842208},
	"redistribute": {0.41711282895701984, 0.0060667759966683832, 0.0051816839977263385, 6.9076000002610272e-05, 18.222164076500061, 7.777500090710987e-05},
	"cache":        {0.41711282899625157, 0.0060667759997243831, 0.0051816840000569186, 6.9076000000167781e-05, 0.40016919006499996, 7.7774999987845206e-05},
	"merged":       {0.036688273000308635, 0, 0.0045947889998919633, 6.9075999999945736e-05, 0.39905905002400699, 7.7774999987845206e-05},
	"async":        {0.036688273000308635, 0, 0.0045947889998919633, 6.9075999999945736e-05, 0.25577551798785458, 7.7774999987845206e-05},
	"subspace":     {0.0037654379999598198, 0, 1.547000042123603e-06, 0.00010980000000004875, 0.26528127798698298, 0.00011519999998199637},
}

// simulateGoldenFlat1T extends golden coverage across the flat-tree
// refactor: per-phase simulated times for the single-thread n=1024
// configuration, per scenario, captured from the tree immediately BEFORE
// the arena/Morton flat octree landed. The flat representation is a
// native-backend execution detail, so the Simulate backend's phase
// tables must stay byte-identical across that refactor; this second,
// scenario-bearing pin catches a cost-model change the n=2048 plummer
// tables could miss (e.g. a charge keyed off tree shape).
//
// Regenerate with `go run ./internal/core/goldengen -n 1024 [-scenario s]`.
var simulateGoldenFlat1T = map[string]map[string]PhaseTimes{
	"plummer": {
		"baseline":     {0.0081315640000510225, 0.00049951999999703345, 0.00025628800001165075, 0, 0.13663619999875068, 0.00031743999994660044},
		"scalars":      {0.008047068000052629, 0.00049951999999703345, 0.00025620800001163735, 0, 0.11455092000571931, 0.00031744000000344386},
		"redistribute": {0.0078901080000328416, 0.00049951999999703345, 0.00025620800001163735, 0, 0.11438708000569187, 0.00015359999997599516},
		"cache":        {0.0078901080000538526, 0.0004995200000189326, 0.00025620800001933952, 0, 0.097669972002246877, 0.00015359999997599516},
		"merged":       {0.0026008959999930387, 0, 0.00025620800001933952, 0, 0.097669972001921887, 0.00015359999997599516},
		"async":        {0.0026008959999930387, 0, 0.00025620800001933952, 0, 0.097602288001897852, 0.00015359999997599516},
		"subspace":     {0.0029327999999905485, 0, 2.0639999989136015e-06, 0.00010124799999999823, 0.097602288001910759, 0.00015359999997599516},
	},
	"clustered": {
		"baseline":     {0.0081026040000882621, 0.0005124800000190638, 0.00026924800001948412, 0, 0.076565520004340026, 0.00031744000000344386},
		"scalars":      {0.0080205080001111845, 0.00051248000004140704, 0.00026916800002761698, 0, 0.064391040001862312, 0.00031744000001765471},
		"redistribute": {0.007863468000084875, 0.00051248000004140704, 0.00026916800002761698, 0, 0.064227200001808246, 0.00015359999999020602},
		"cache":        {0.007863468000084875, 0.00051248000004140704, 0.00026916800002761698, 0, 0.054581689999479627, 0.00015359999999020602},
		"merged":       {0.0025192960000377934, 0, 0.00026916800001259428, 0, 0.054581689999509506, 0.00015360000000441687},
		"async":        {0.0025192960000377934, 0, 0.00026916800001259428, 0, 0.054513843999493009, 0.00015360000000441687},
		"subspace":     {0.0028512000000424295, 0, 2.0639999989136015e-06, 0.00010124800000000517, 0.054513843999487888, 0.00015360000000441687},
	},
}

// checkPhases compares a run's per-phase simulated times against a
// golden table: a phase the golden pins at zero must be exactly zero,
// every other within 1e-12 relative (float formatting round-trip).
func checkPhases(t *testing.T, got, want PhaseTimes) {
	t.Helper()
	for p := Phase(0); p < NumPhases; p++ {
		if want[p] == 0 {
			if got[p] != 0 {
				t.Errorf("%v: got %.17g, want exactly 0", p, got[p])
			}
			continue
		}
		if rel := math.Abs(got[p]-want[p]) / want[p]; rel > 1e-12 {
			t.Errorf("%v: got %.17g, want %.17g (rel err %g)", p, got[p], want[p], rel)
		}
	}
}

// goldenRun runs one simulate-mode configuration to completion.
func goldenRun(t *testing.T, opts Options) PhaseTimes {
	t.Helper()
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Phases
}

// TestSimulateGoldenFlatRefactor pins the Simulate backend to the exact
// pre-flat-tree phase tables: the flat octree must change native-mode
// execution only.
func TestSimulateGoldenFlatRefactor(t *testing.T) {
	for scenario, perLevel := range simulateGoldenFlat1T {
		for level := LevelBaseline; level < NumLevels; level++ {
			t.Run(scenario+"/"+level.String(), func(t *testing.T) {
				want, ok := perLevel[level.String()]
				if !ok {
					t.Fatalf("no golden for level %v", level)
				}
				opts := DefaultOptions(1024, 1, level)
				opts.Scenario = scenario
				checkPhases(t, goldenRun(t, opts), want)
			})
		}
	}
}

// TestSimulateGoldenSingleThread pins the Simulate backend to the exact
// pre-refactor phase tables at one thread.
func TestSimulateGoldenSingleThread(t *testing.T) {
	for level := LevelBaseline; level < NumLevels; level++ {
		t.Run(level.String(), func(t *testing.T) {
			want, ok := simulateGolden1T[level.String()]
			if !ok {
				t.Fatalf("no golden for level %v", level)
			}
			checkPhases(t, goldenRun(t, DefaultOptions(2048, 1, level)), want)
		})
	}
}

// TestSimulateGoldenFourThreads pins the 4-thread phase tables exactly:
// any drift is a cost-model or scheduler-order change.
func TestSimulateGoldenFourThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulated runs")
	}
	for level := LevelBaseline; level < NumLevels; level++ {
		t.Run(level.String(), func(t *testing.T) {
			want, ok := simulateGolden4T[level.String()]
			if !ok {
				t.Fatalf("no golden for level %v", level)
			}
			checkPhases(t, goldenRun(t, DefaultOptions(2048, 4, level)), want)
		})
	}
}
