package verify_test

import (
	"fmt"
	"testing"

	"upcbh/internal/bench"
	"upcbh/internal/core"
	"upcbh/internal/nbody"
	"upcbh/internal/verify"
)

// Matrix dimensions. Every cell runs through one shared memoized
// bench.Runner, so the oracle subtest and the pairwise subtest request
// each configuration once between them.
var (
	matrixModes = []core.ExecMode{core.ModeSimulate, core.ModeNative}

	// Oracle tolerances for the matrix configuration (theta = 0.5,
	// n = 256, eps = 0.05). Observed legitimate multipole error across
	// all five scenarios x every level each mode runs: max-relative
	// <= 0.095 (worst body, near a force cancellation), RMS <= 0.011.
	// A real defect — a subtree missed, a mass double-counted, a stale
	// cached cell — shifts the RMS metric by orders of magnitude, so
	// ~1.5-2x headroom separates noise from defect without masking one.
	matrixTheta     = 0.5
	oracleMaxRelTol = 0.15
	oracleRMSTol    = 0.02

	// Levels traverse the same tree and differ only in where the
	// partial sums are accumulated, so cross-level (and cross-mode)
	// divergence is pure floating-point reordering: observed <= 3e-15.
	pairwiseTol = 1e-9
)

// matrixOptions is the one configuration shape every matrix cell uses.
func matrixOptions(scenario string, level core.Level, mode core.ExecMode) core.Options {
	opts := core.DefaultOptions(256, 4, level)
	opts.Scenario = scenario
	opts.Steps, opts.Warmup = 2, 1
	opts.Theta = matrixTheta
	opts.ExecMode = mode
	return opts
}

// matrixScenarios returns the scenario axis: every registered scenario,
// trimmed under -short (the -race CI run) to the paper's workload plus
// the most adversarial distribution.
func matrixScenarios(t *testing.T) []string {
	if testing.Short() {
		return []string{"plummer", "clustered"}
	}
	return nbody.ScenarioNames()
}

// newVerifyRunner builds a Runner that retains the body state the
// oracles consume.
func newVerifyRunner() *bench.Runner {
	r := bench.NewRunner(0)
	r.KeepBodies = true
	return r
}

// TestDifferentialMatrix is the repository's physics gate: every
// optimization Level x ExecMode cell that exists (simulate L0-L6, native
// L3-L6) x workload scenario at oracle-scale n, each run checked against
// O(n^2) direct summation at the reconstructed force-evaluation
// positions, and all of a scenario's cells — both modes' — checked
// pairwise against its simulate LevelBaseline run within FP-reordering
// tolerance, so the native flat paths are held to the simulator's
// pointer walk. A refactor that breaks the physics of any single level,
// backend, or spatial distribution fails the corresponding cell by name.
func TestDifferentialMatrix(t *testing.T) {
	runner := newVerifyRunner()
	for _, scenario := range matrixScenarios(t) {
		for _, mode := range matrixModes {
			scenario, mode := scenario, mode
			t.Run(fmt.Sprintf("%s/%s", scenario, mode), func(t *testing.T) {
				// Baseline first: the scenario's pairwise reference, run
				// once and shared by both mode groups through the runner.
				base, _, err := runner.Run(matrixOptions(scenario, core.LevelBaseline, core.ModeSimulate))
				if err != nil {
					t.Fatalf("baseline run: %v", err)
				}
				first := core.LevelBaseline
				if mode == core.ModeNative {
					first = core.LevelCacheTree
				}
				for level := first; level < core.NumLevels; level++ {
					level := level
					t.Run(level.String(), func(t *testing.T) {
						opts := matrixOptions(scenario, level, mode)
						res, _, err := runner.Run(opts)
						if err != nil {
							t.Fatal(err)
						}
						if len(res.Bodies) != opts.Bodies {
							t.Fatalf("result carries %d bodies, want %d (Runner.KeepBodies regression?)", len(res.Bodies), opts.Bodies)
						}

						// Oracle: direct summation at the reconstructed positions.
						maxRel, rms := verify.ForceErrors(res.Bodies, opts.Eps, opts.Dt)
						if maxRel > oracleMaxRelTol {
							t.Errorf("max relative force error vs direct sum: %g > %g", maxRel, oracleMaxRelTol)
						}
						if rms > oracleRMSTol {
							t.Errorf("RMS force error vs direct sum: %g > %g", rms, oracleRMSTol)
						}

						// Pairwise: all cells agree with the simulate baseline
						// (and hence with each other) up to FP reordering.
						if d := verify.MaxAccDivergence(base.Bodies, res.Bodies); d > pairwiseTol {
							t.Errorf("acceleration divergence vs simulate %s: %g > %g", core.LevelBaseline, d, pairwiseTol)
						}
					})
				}
			})
		}
	}

	// The matrix shares each baseline run between the oracle and
	// pairwise roles; the runner must have deduplicated those requests.
	if st := runner.Stats(); st.Hits == 0 {
		t.Errorf("expected memoized re-use inside the matrix, got stats %+v", st)
	}
}

// TestModeAgreementPerScenario closes the remaining seam the matrix
// checks only indirectly: for each scenario, the Native backend's final
// accelerations match the Simulate backend's bit-for-bit up to
// FP-reordering tolerance at the fully optimized level.
func TestModeAgreementPerScenario(t *testing.T) {
	runner := newVerifyRunner()
	for _, scenario := range matrixScenarios(t) {
		scenario := scenario
		t.Run(scenario, func(t *testing.T) {
			sim, _, err := runner.Run(matrixOptions(scenario, core.LevelSubspace, core.ModeSimulate))
			if err != nil {
				t.Fatal(err)
			}
			nat, _, err := runner.Run(matrixOptions(scenario, core.LevelSubspace, core.ModeNative))
			if err != nil {
				t.Fatal(err)
			}
			if d := verify.MaxAccDivergence(sim.Bodies, nat.Bodies); d > pairwiseTol {
				t.Errorf("simulate vs native acceleration divergence: %g > %g", d, pairwiseTol)
			}
		})
	}
}
