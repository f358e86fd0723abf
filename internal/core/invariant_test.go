package core

import (
	"fmt"
	"testing"

	"upcbh/internal/nbody"
	"upcbh/internal/vec"
)

// runNative runs one native configuration to completion; bodies, when
// non-nil, replace the generated initial conditions.
func runNative(t *testing.T, opts Options, bodies []nbody.Body) *Result {
	t.Helper()
	opts.ExecMode = ModeNative
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	if bodies != nil {
		sim.SetBodies(bodies)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult is sameBodies (every field of every body, ==) plus the
// interaction count.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Interactions != want.Interactions {
		t.Errorf("%d interactions, want %d", got.Interactions, want.Interactions)
	}
	sameBodies(t, got.Bodies, want.Bodies)
}

// TestNativeThreadCountInvariant: at LevelCacheTree and above a native
// result is a pure function of the body set. Every thread count, and
// every one of the four levels that share the direct tree path, ends in
// the same bits — Pos, Vel, Acc, Phi, Cost of every body and the
// interaction total — because the parallel build produces the canonical
// tree with one fixed floating-point association, the kernel's
// per-body interaction order is the tree's alone, and self-skip is by
// slot (no stale-copy term for migrated bodies). Several steps, so
// bodies migrate between threads on the way.
func TestNativeThreadCountInvariant(t *testing.T) {
	levels := []Level{LevelCacheTree, LevelMergedBuild, LevelAsync, LevelSubspace}
	for _, scen := range nbody.ScenarioNames() {
		scen := scen
		t.Run(scen, func(t *testing.T) {
			mk := func(threads int, level Level) Options {
				opts := DefaultOptions(640, threads, level)
				opts.Steps, opts.Warmup = 5, 1
				opts.Scenario = scen
				return opts
			}
			want := runNative(t, mk(1, LevelCacheTree), nil)
			for _, threads := range []int{1, 2, 3, 4, 7} {
				for _, level := range levels {
					got := runNative(t, mk(threads, level), nil)
					if threads > 1 && got.MigratedFraction == 0 {
						t.Errorf("p%d/%s: no body migrated, the run does not exercise redistribution", threads, level)
					}
					if !t.Run(fmt.Sprintf("p%d/%s", threads, level), func(t *testing.T) { sameResult(t, got, want) }) {
						return
					}
				}
			}
		})
	}

	// The corners of the parallel build, reached with hand-placed bodies
	// and a forced crown depth: fewer bodies than bins, threads that own
	// nothing (more threads than bodies — at set-up and after every
	// partition), and a crown whose bodies all but two sit in one bin.
	init, err := nbody.GenerateScenario("plummer", 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	oneBin := append([]nbody.Body(nil), init...)
	for i := range oneBin[2:] {
		oneBin[2+i].Pos = oneBin[2+i].Pos.Scale(1.0 / 512).Add(vec.V3{X: 3, Y: 3, Z: 3})
	}
	oneBin[0].Pos, oneBin[1].Pos = vec.V3{X: -8, Y: -8, Z: -8}, vec.V3{X: 8, Y: 8, Z: 8}
	for _, c := range []struct {
		name    string
		bodies  []nbody.Body
		threads []int
		depth   int
	}{
		{"fewer-bodies-than-bins", init[:40], []int{2, 4}, 2},
		{"idle-threads", init[:5], []int{3, 7}, 1},
		{"one-bin", oneBin, []int{2, 3, 4}, 3},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			mk := func(threads int) Options {
				opts := DefaultOptions(len(c.bodies), threads, LevelMergedBuild)
				opts.Steps, opts.Warmup = 4, 1
				opts.Verify = true
				if threads > 1 {
					opts.testCrownDepth = c.depth
				}
				return opts
			}
			want := runNative(t, mk(1), c.bodies)
			for _, threads := range c.threads {
				got := runNative(t, mk(threads), c.bodies)
				t.Run(fmt.Sprintf("p%d", threads), func(t *testing.T) { sameResult(t, got, want) })
			}
		})
	}
}

// TestNativeRepeatable: two runs of one multi-thread native configuration
// end in identical bodies — nothing in the step depends on thread timing.
func TestNativeRepeatable(t *testing.T) {
	opts := DefaultOptions(2048, 4, LevelMergedBuild)
	opts.Steps, opts.Warmup = 4, 1
	opts.Scenario = "clustered"
	sameResult(t, runNative(t, opts, nil), runNative(t, opts, nil))
}
