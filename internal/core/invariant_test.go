package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"upcbh/internal/nbody"
	"upcbh/internal/upc"
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
	currentSim = sim
	defer func() { currentSim = nil }()
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

	// The corners of the parallel build a session can reach (n >= 512, so
	// the crown is real; fewer bodies than bins is not reachable through
	// CrownDepth and stays with octree.TestParallelBuildCorners): a crown
	// whose bodies all but two sit in one bin, and threads that own
	// nothing — a few bodies arrive with a cost that dwarfs the rest, so
	// the first partition leaves the threads whose share falls inside one
	// of them empty-handed for a force phase and the next build (few
	// enough heavy bodies to idle a thread, enough to keep every other
	// thread's share inside its body buffer).
	init, err := nbody.GenerateScenario("plummer", 600, 9)
	if err != nil {
		t.Fatal(err)
	}
	oneBin := append([]nbody.Body(nil), init...)
	for i := range oneBin[2:] {
		oneBin[2+i].Pos = oneBin[2+i].Pos.Scale(1.0 / 512).Add(vec.V3{X: 3, Y: 3, Z: 3})
	}
	oneBin[0].Pos, oneBin[1].Pos = vec.V3{X: -8, Y: -8, Z: -8}, vec.V3{X: 8, Y: 8, Z: 8}
	heavy := func(ids ...int) []nbody.Body {
		bodies := append([]nbody.Body(nil), init...)
		for _, i := range ids {
			bodies[i].Cost = 1 << 30
		}
		return bodies
	}
	for _, c := range []struct {
		name     string
		bodies   []nbody.Body
		threads  []int
		wantIdle bool
	}{
		{"one-bin", oneBin, []int{2, 3, 4}, false},
		{"idle-threads-p3", heavy(300), []int{3}, true},
		{"idle-threads-p7", heavy(100, 200, 300, 400), []int{7}, true},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var idle atomic.Int32
			mk := func(threads int) Options {
				opts := DefaultOptions(len(c.bodies), threads, LevelMergedBuild)
				opts.Steps, opts.Warmup = 4, 1
				opts.Verify = true
				opts.testStepHook = func(th *upc.Thread, step int) {
					if step == 0 && len(currentSim.ts[th.ID()].myBodies) == 0 {
						idle.Add(1)
					}
				}
				return opts
			}
			want := runNative(t, mk(1), c.bodies)
			for _, threads := range c.threads {
				idle.Store(0)
				got := runNative(t, mk(threads), c.bodies)
				if c.wantIdle && idle.Load() == 0 {
					t.Errorf("p%d: every thread owned bodies after the first partition", threads)
				}
				t.Run(fmt.Sprintf("p%d", threads), func(t *testing.T) { sameResult(t, got, want) })
			}
		})
	}
}

// TestNativeRootCubeMatchesAllReduce: boundingBox reduces the threads'
// boxes by a barrier and a peer fold on the direct tree path and by two
// all-reduces everywhere else; both must yield the same root cube. Native
// positions at three threads are simulate's at one, bit for bit, so step
// for step the two reductions see the same bodies.
func TestNativeRootCubeMatchesAllReduce(t *testing.T) {
	cubes := func(mode ExecMode, threads int) []rootGeom {
		var out []rootGeom
		opts := DefaultOptions(640, threads, LevelMergedBuild)
		opts.Steps, opts.Warmup = 4, 1
		opts.ExecMode = mode
		opts.testStepHook = func(th *upc.Thread, step int) {
			if th.ID() == 0 {
				out = append(out, currentSim.ts[0].geom)
			}
		}
		sim, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Release()
		currentSim = sim
		defer func() { currentSim = nil }()
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := cubes(ModeSimulate, 1), cubes(ModeNative, 3)
	if len(got) != 4 || len(want) != 4 {
		t.Fatalf("recorded %d and %d cubes, want 4", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d: flat path root cube %+v, all-reduce %+v", i, got[i], want[i])
		}
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
