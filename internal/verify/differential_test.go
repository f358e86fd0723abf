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
	// all five scenarios x seven levels x both modes: max-relative
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
// optimization Level x ExecMode x workload scenario at oracle-scale n,
// each run checked against O(n^2) direct summation at the reconstructed
// force-evaluation positions, and all levels checked pairwise against
// LevelBaseline within FP-reordering tolerance. A refactor that breaks
// the physics of any single level, backend, or spatial distribution
// fails the corresponding cell by name.
func TestDifferentialMatrix(t *testing.T) {
	runner := newVerifyRunner()
	for _, scenario := range matrixScenarios(t) {
		for _, mode := range matrixModes {
			scenario, mode := scenario, mode
			t.Run(fmt.Sprintf("%s/%s", scenario, mode), func(t *testing.T) {
				// Baseline first: the pairwise reference for this cell group.
				base, _, err := runner.Run(matrixOptions(scenario, core.LevelBaseline, mode))
				if err != nil {
					t.Fatalf("baseline run: %v", err)
				}
				for level := core.LevelBaseline; level < core.NumLevels; level++ {
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

						// Pairwise: all levels agree with baseline (and hence
						// with each other) up to FP reordering.
						if d := verify.MaxAccDivergence(base.Bodies, res.Bodies); d > pairwiseTol {
							t.Errorf("acceleration divergence vs %s: %g > %g", core.LevelBaseline, d, pairwiseTol)
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

// TestFlatVsPointerPerScenario adds the flat-vs-pointer axis to the
// differential matrix: for each scenario, the native backend's flat
// paths (arena local build + flat-snapshot force kernel) must produce
// the same physics as the pointer/NodeRef paths — which the simulate
// backend runs, charged — within FP-reordering tolerance, at both a
// merged-build and the fully optimized subspace level, and both must
// satisfy the direct-sum oracle.
func TestFlatVsPointerPerScenario(t *testing.T) {
	runner := newVerifyRunner()
	for _, scenario := range matrixScenarios(t) {
		for _, level := range []core.Level{core.LevelMergedBuild, core.LevelSubspace} {
			scenario, level := scenario, level
			t.Run(fmt.Sprintf("%s/%s", scenario, level), func(t *testing.T) {
				flatOpts := matrixOptions(scenario, level, core.ModeNative)
				flat, _, err := runner.Run(flatOpts)
				if err != nil {
					t.Fatal(err)
				}
				ptr, _, err := runner.Run(matrixOptions(scenario, level, core.ModeSimulate))
				if err != nil {
					t.Fatal(err)
				}
				if d := verify.MaxAccDivergence(flat.Bodies, ptr.Bodies); d > pairwiseTol {
					t.Errorf("flat vs pointer acceleration divergence: %g > %g", d, pairwiseTol)
				}
				for name, res := range map[string]*core.Result{"flat": flat, "pointer": ptr} {
					maxRel, rms := verify.ForceErrors(res.Bodies, flatOpts.Eps, flatOpts.Dt)
					if maxRel > oracleMaxRelTol || rms > oracleRMSTol {
						t.Errorf("%s variant vs direct sum: maxRel %g (tol %g), rms %g (tol %g)",
							name, maxRel, oracleMaxRelTol, rms, oracleRMSTol)
					}
				}
			})
		}
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
