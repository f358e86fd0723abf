package core

import (
	"testing"
)

// runMode executes one configuration under the given backend.
func runMode(t *testing.T, mode ExecMode, n, threads int, level Level, steps, warmup int) *Result {
	t.Helper()
	opts := DefaultOptions(n, threads, level)
	opts.Steps, opts.Warmup = steps, warmup
	opts.ExecMode = mode
	sim, err := New(opts)
	if err != nil {
		t.Fatalf("New(%v, %v): %v", mode, level, err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run(%v, %v): %v", mode, level, err)
	}
	return res
}

// comparePhysics returns the worst relative position/velocity difference
// between two runs of the same configuration.
func comparePhysics(t *testing.T, a, b *Result) (worstPos, worstVel float64) {
	t.Helper()
	if len(a.Bodies) != len(b.Bodies) {
		t.Fatalf("body counts differ: %d vs %d", len(a.Bodies), len(b.Bodies))
	}
	for i := range a.Bodies {
		if a.Bodies[i].ID != b.Bodies[i].ID {
			t.Fatalf("body order mismatch at %d", i)
		}
		if e := a.Bodies[i].Pos.Sub(b.Bodies[i].Pos).Len() / (1 + b.Bodies[i].Pos.Len()); e > worstPos {
			worstPos = e
		}
		if e := a.Bodies[i].Vel.Sub(b.Bodies[i].Vel).Len() / (1 + b.Bodies[i].Vel.Len()); e > worstVel {
			worstVel = e
		}
	}
	return worstPos, worstVel
}

// TestModeEquivalence checks that the Native backend produces the same
// physics as the Simulate backend at a fixed seed: the timing policy is
// the only thing that changes, so positions and velocities must agree
// within FP-reordering tolerance (the simulator's tree merges sum
// centers of mass in baton order, the flat tree in one fixed order).
// Native starts at LevelCacheTree, so that is where the rows do.
func TestModeEquivalence(t *testing.T) {
	cases := []struct {
		level   Level
		n       int
		threads int
	}{
		{LevelCacheTree, 1024, 4},
		{LevelMergedBuild, 1024, 4},
		{LevelAsync, 1024, 4},
		{LevelSubspace, 2048, 8},
	}
	for _, c := range cases {
		c := c
		t.Run(c.level.String(), func(t *testing.T) {
			sim := runMode(t, ModeSimulate, c.n, c.threads, c.level, 2, 1)
			nat := runMode(t, ModeNative, c.n, c.threads, c.level, 2, 1)
			if nat.ExecMode != ModeNative || sim.ExecMode != ModeSimulate {
				t.Fatalf("ExecMode not recorded: sim=%v native=%v", sim.ExecMode, nat.ExecMode)
			}
			worstPos, worstVel := comparePhysics(t, nat, sim)
			if worstPos > 1e-6 || worstVel > 1e-6 {
				t.Errorf("native physics diverges from simulate: pos %g vel %g", worstPos, worstVel)
			}
			if nat.Interactions == 0 {
				t.Error("native run recorded no interactions")
			}
		})
	}
}

// TestNativeSubspaceEndToEnd is the acceptance configuration: the
// LevelSubspace pipeline at n=16384 on 8 threads under the Native
// backend, with measured wall-clock phase times in the Result and
// physics matching the Simulate backend.
func TestNativeSubspaceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("large configuration")
	}
	const n, threads = 16384, 8
	nat := runMode(t, ModeNative, n, threads, LevelSubspace, 4, 2)
	if nat.ExecMode != ModeNative {
		t.Fatalf("ExecMode = %v", nat.ExecMode)
	}
	// Wall-clock phase times: the measured steps did real work, so the
	// dominant phases must have strictly positive measured durations and
	// every phase must be non-negative.
	if nat.Phases[PhaseForce] <= 0 || nat.Phases[PhaseTree] <= 0 {
		t.Errorf("expected positive wall-clock force/tree times, got %v", nat.Phases)
	}
	for p := Phase(0); p < NumPhases; p++ {
		if nat.Phases[p] < 0 {
			t.Errorf("negative wall-clock time for %v: %g", p, nat.Phases[p])
		}
	}
	// A native run of this size on any host completes the measured steps
	// in well under a minute; sanity-bound the measurement itself.
	if tot := nat.Total(); tot <= 0 || tot > 300 {
		t.Errorf("implausible wall-clock total %g", tot)
	}

	sim := runMode(t, ModeSimulate, n, threads, LevelSubspace, 4, 2)
	worstPos, worstVel := comparePhysics(t, nat, sim)
	if worstPos > 1e-6 || worstVel > 1e-6 {
		t.Errorf("native physics diverges from simulate: pos %g vel %g", worstPos, worstVel)
	}
}

// TestNativePhaseTimesAreWallClock: at LevelCacheTree (the lowest level
// both backends run) a measured step of this size is ~80 simulated
// milliseconds, while real execution takes well under one — so if the
// Native backend accidentally charged simulated costs, the totals would
// be off by orders of magnitude.
func TestNativePhaseTimesAreWallClock(t *testing.T) {
	sim := runMode(t, ModeSimulate, 512, 4, LevelCacheTree, 2, 1)
	nat := runMode(t, ModeNative, 512, 4, LevelCacheTree, 2, 1)
	if nat.Total() >= sim.Total() {
		t.Errorf("native wall-clock total %g should be far below simulated total %g",
			nat.Total(), sim.Total())
	}
}
