package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"upcbh/internal/nbody"
	"upcbh/internal/upc"
)

// The steppable session engine's core promise: a run partitioned into
// Step(k₁)…Step(kₘ)+Finish is indistinguishable from one Run(). Under
// the simulate backend that means byte-identical Results (the step gate
// is scheduling-transparent); under the native backend timings are wall
// clock, so the physics is compared instead — exactly for one thread
// (deterministic FP order), to FP-reordering tolerance for several.

// runStepped executes opts by the given step partition and returns the
// collected Result.
func runStepped(t *testing.T, opts Options, partition []int) *Result {
	t.Helper()
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	for _, k := range partition {
		if err := sim.Step(k); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameBodies(t *testing.T, a, b []nbody.Body) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("body counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("body %d differs:\n%+v\nvs\n%+v", i, a[i], b[i])
		}
	}
}

func TestStepEquivalenceSimulate(t *testing.T) {
	levels := []Level{LevelBaseline, LevelRedistribute, LevelMergedBuild, LevelSubspace}
	scenarios := []string{"plummer", "clustered"}
	if testing.Short() {
		levels = []Level{LevelMergedBuild}
		scenarios = scenarios[:1]
	}
	partitions := [][]int{{1, 1, 1, 1}, {2, 2}, {3, 1}, {1, 3}}
	for _, level := range levels {
		for _, scen := range scenarios {
			level, scen := level, scen
			t.Run(fmt.Sprintf("%s/%s", level, scen), func(t *testing.T) {
				opts := DefaultOptions(512, 4, level)
				opts.Scenario = scen
				opts.Steps, opts.Warmup = 4, 1
				ref := runOnce(t, opts)
				refFp := resultFingerprint(t, ref)
				for _, part := range partitions {
					got := runStepped(t, opts, part)
					if fp := resultFingerprint(t, got); fp != refFp {
						t.Fatalf("partition %v diverged from Run():\n%.300s\nvs\n%.300s", part, fp, refFp)
					}
					sameBodies(t, got.Bodies, ref.Bodies)
				}
			})
		}
	}
}

func TestStepEquivalenceNative(t *testing.T) {
	cases := []struct {
		threads int
		level   Level
	}{
		{1, LevelMergedBuild},
		{4, LevelMergedBuild},
		{4, LevelSubspace},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("p%d/%s", c.threads, c.level), func(t *testing.T) {
			opts := DefaultOptions(512, c.threads, c.level)
			opts.Steps, opts.Warmup = 4, 1
			opts.ExecMode = ModeNative
			ref := runOnce(t, opts)
			got := runStepped(t, opts, []int{1, 2, 1})
			// The native tree has one fixed FP association at any thread
			// count (TestNativeThreadCountInvariant): stepped and straight
			// runs agree exactly.
			sameBodies(t, got.Bodies, ref.Bodies)
		})
	}
}

// FuzzStepPartition lets the fuzzer pick the partition: any way of
// cutting the step schedule must reproduce the uninterrupted simulate
// run byte-for-byte.
func FuzzStepPartition(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1))
	f.Add(uint8(4), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(1), uint8(1))
	f.Add(uint8(3), uint8(7), uint8(0))
	opts := DefaultOptions(256, 3, LevelMergedBuild)
	opts.Steps, opts.Warmup = 4, 1
	var (
		refFp     string
		refBodies []nbody.Body
	)
	f.Fuzz(func(t *testing.T, a, b, c uint8) {
		if refFp == "" {
			ref := runOnce(t, opts)
			refFp = resultFingerprint(t, ref)
			refBodies = ref.Bodies
		}
		// Normalize the three cuts into a valid partition of Steps.
		var part []int
		left := opts.Steps
		for _, raw := range []uint8{a, b, c} {
			if left == 0 {
				break
			}
			k := int(raw)%left + 1
			part = append(part, k)
			left -= k
		}
		if left > 0 {
			part = append(part, left)
		}
		got := runStepped(t, opts, part)
		if fp := resultFingerprint(t, got); fp != refFp {
			t.Fatalf("partition %v (from %d,%d,%d) diverged from Run()", part, a, b, c)
		}
		sameBodies(t, got.Bodies, refBodies)
	})
}

// TestStepSteadyStateZeroAlloc is the session-path twin of
// TestNativeSteadyStateZeroAlloc: driving the native merged-build hot
// path one Step at a time must not allocate in steady state either —
// the gate's fast path and the controller handshake stay off the heap.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	const steps, warm = 8, 1
	mallocs := make([]uint64, 0, steps)
	opts := DefaultOptions(2048, 1, LevelMergedBuild)
	opts.Steps, opts.Warmup = steps, warm
	opts.ExecMode = ModeNative
	opts.testStepHook = func(th *upc.Thread, step int) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs = append(mallocs, ms.Mallocs)
	}
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	for i := 0; i < steps; i++ {
		if err := sim.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sim.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(mallocs) != steps {
		t.Fatalf("hook ran %d times, want %d", len(mallocs), steps)
	}
	for i := steps - 3; i < steps; i++ {
		if d := mallocs[i] - mallocs[i-1]; d != 0 {
			t.Errorf("step %d allocated %d objects in steady state, want 0", i, d)
		}
	}
}

// TestStepAllocIndependentOfSteps: what a session allocates to take its
// first step does not grow with Options.Steps, a number a client sends:
// the 64-body native session of bhserve's one-request crash, configured
// for 1<<22 or 1<<40 steps, takes one step in under 1 MB.
func TestStepAllocIndependentOfSteps(t *testing.T) {
	for _, steps := range []int{1 << 22, 1 << 40} {
		t.Run(fmt.Sprintf("steps=%d", steps), func(t *testing.T) {
			opts := DefaultOptions(64, 1, LevelMergedBuild)
			opts.Steps, opts.Warmup = steps, 0
			opts.ExecMode = ModeNative
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sim, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Release()
			if err := sim.Step(1); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Errorf("New + Step(1) allocated %d bytes, want < 1 MB", d)
			}
		})
	}
}

// TestSnapshotNonPerturbing interleaves a Snapshot at every step
// boundary and demands the final Result still matches the plain Run
// byte-for-byte, while the snapshots themselves are monotone and
// internally consistent.
func TestSnapshotNonPerturbing(t *testing.T) {
	opts := DefaultOptions(512, 4, LevelMergedBuild)
	opts.Steps, opts.Warmup = 4, 1
	refFp := resultFingerprint(t, runOnce(t, opts))

	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	var prevClocks []float64
	for step := 0; step <= opts.Steps; step++ {
		snap, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Step != step {
			t.Fatalf("snapshot at boundary %d reports Step %d", step, snap.Step)
		}
		if snap.Time != float64(step)*opts.Dt {
			t.Fatalf("snapshot Time %v, want %v", snap.Time, float64(step)*opts.Dt)
		}
		measured := step - opts.Warmup
		if measured < 0 {
			measured = 0
		}
		if len(snap.StepPhases) != measured {
			t.Fatalf("snapshot at step %d has %d measured step rows, want %d", step, len(snap.StepPhases), measured)
		}
		if len(snap.Bodies) != opts.Bodies {
			t.Fatalf("snapshot carries %d bodies, want %d", len(snap.Bodies), opts.Bodies)
		}
		if len(snap.Clocks) != 4 {
			t.Fatalf("snapshot carries %d clocks, want 4", len(snap.Clocks))
		}
		for i, c := range snap.Clocks {
			if prevClocks != nil && c < prevClocks[i] {
				t.Fatalf("thread %d clock went backwards: %v -> %v", i, prevClocks[i], c)
			}
		}
		prevClocks = snap.Clocks
		if step < opts.Steps {
			if err := sim.Step(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if fp := resultFingerprint(t, res); fp != refFp {
		t.Fatalf("snapshotted run diverged from plain Run:\n%.300s\nvs\n%.300s", fp, refFp)
	}
	// Snapshot after Finish is still legal: storage is live until
	// Release.
	if _, err := sim.Snapshot(); err != nil {
		t.Fatalf("Snapshot after Finish: %v", err)
	}
}

// TestSnapshotStepZero: a snapshot on a fresh Sim observes the setup-
// distributed initial conditions before any step has run.
func TestSnapshotStepZero(t *testing.T) {
	opts := DefaultOptions(256, 2, LevelMergedBuild)
	opts.Steps, opts.Warmup = 2, 0
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step != 0 || snap.Interactions != 0 || len(snap.StepPhases) != 0 {
		t.Fatalf("step-0 snapshot not pristine: %+v", snap)
	}
	for i, b := range snap.Bodies {
		if int(b.ID) != i {
			t.Fatalf("step-0 snapshot bodies not in ID order at %d: %d", i, b.ID)
		}
		if b.Phi != 0 {
			// No force step has run yet.
			t.Fatalf("step-0 snapshot body %d already has potential %v", i, b.Phi)
		}
	}
	// The auto-started session still runs to completion afterwards.
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEarlyFinish: finishing before Options.Steps yields a Result over
// the measured steps completed so far.
func TestEarlyFinish(t *testing.T) {
	opts := DefaultOptions(256, 2, LevelMergedBuild)
	opts.Steps, opts.Warmup = 4, 1
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	if err := sim.Step(3); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StepPhases) != 2 {
		t.Fatalf("early Finish collected %d measured steps, want 2", len(res.StepPhases))
	}
	if len(res.Bodies) != opts.Bodies {
		t.Fatalf("early Finish gathered %d bodies, want %d", len(res.Bodies), opts.Bodies)
	}
}

// TestReleaseIdempotent guards the double-release bug: Release must be
// callable any number of times, from any lifecycle state, without
// returning the same chunks to the recycling pools twice.
func TestReleaseIdempotent(t *testing.T) {
	opts := DefaultOptions(256, 2, LevelMergedBuild)
	opts.Steps, opts.Warmup = 2, 0

	t.Run("after-run", func(t *testing.T) {
		sim, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		sim.Release()
		sim.Release()
	})
	t.Run("fresh", func(t *testing.T) {
		sim, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		sim.Release()
		sim.Release()
	})
	t.Run("paused", func(t *testing.T) {
		// Release on a paused session terminates the threads first; the
		// Sim can be abandoned mid-run without Finish and without leaking
		// parked goroutines.
		sim, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Step(1); err != nil {
			t.Fatal(err)
		}
		sim.Release()
		sim.Release()
		if err := sim.Step(1); err == nil {
			t.Fatal("Step after Release did not fail")
		}
	})
}

// TestSetBodiesAfterStartPanics: setup has already copied the initial
// conditions into the shared heap, so a late SetBodies would be
// silently ignored — it must panic instead.
func TestSetBodiesAfterStartPanics(t *testing.T) {
	opts := DefaultOptions(256, 2, LevelMergedBuild)
	opts.Steps, opts.Warmup = 2, 0
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	if err := sim.Step(1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SetBodies after session start did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "SetBodies") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	sim.SetBodies(make([]nbody.Body, 4))
}

// TestSetBodiesNonFinitePanics: a NaN or infinite field is refused when
// the bodies are set, naming the body, and not by a panic in the native
// flat build of the first step.
func TestSetBodiesNonFinitePanics(t *testing.T) {
	for _, bad := range []func(b *nbody.Body){
		func(b *nbody.Body) { b.Pos.X = math.NaN() },
		func(b *nbody.Body) { b.Pos.Z = math.Inf(-1) },
		func(b *nbody.Body) { b.Vel.Y = math.Inf(1) },
		func(b *nbody.Body) { b.Mass = math.NaN() },
	} {
		opts := DefaultOptions(64, 1, LevelMergedBuild)
		opts.ExecMode = ModeNative
		sim, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		bodies := nbody.Plummer(64, 3)
		bad(&bodies[17])
		func() {
			defer sim.Release()
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "body 17") {
					t.Fatalf("SetBodies of a non-finite body: panic %v, want one naming body 17", r)
				}
			}()
			sim.SetBodies(bodies)
		}()
	}
}

// TestSetBodiesResizes: the backend is built when the session starts, so
// SetBodies at another body count than Options.Bodies runs exactly as a
// Sim configured for that count — equal bodies, and simulate Results
// byte-equal at levels whose buffers outgrow a chunk sized for the
// configured count — and the native tree's hot arrays stay inside the
// arena sized for the bodies actually stepped.
func TestSetBodiesResizes(t *testing.T) {
	run := func(t *testing.T, opts Options, bodies []nbody.Body, check func(*Sim)) *Result {
		t.Helper()
		sim, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Release()
		sim.SetBodies(bodies)
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if check != nil {
			check(sim)
		}
		return res
	}
	for _, c := range []struct {
		mode  ExecMode
		level Level
		n     int
	}{
		{ModeSimulate, LevelBaseline, 5000},
		{ModeSimulate, LevelRedistribute, 5000},
		{ModeSimulate, LevelCacheTree, 5000},
		{ModeSimulate, LevelSubspace, 5000},
		{ModeNative, LevelMergedBuild, 50000},
	} {
		t.Run(fmt.Sprintf("%v/%v", c.mode, c.level), func(t *testing.T) {
			bodies := nbody.Plummer(c.n, 7)
			opts := DefaultOptions(64, 1, c.level)
			opts.ExecMode = c.mode
			opts.Steps, opts.Warmup = 2, 1
			sized := opts
			sized.Bodies = c.n
			if c.mode == ModeNative {
				got := run(t, opts, bodies, func(s *Sim) { treeInArena(t, s.eng.(*flatEngine)) })
				sameBodies(t, got.Bodies, run(t, sized, bodies, nil).Bodies)
				return
			}
			gotRes, wantRes := run(t, opts, bodies, nil), run(t, sized, bodies, nil)
			sameBodies(t, gotRes.Bodies, wantRes.Bodies)
			got, err := json.Marshal(gotRes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(wantRes)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("SetBodies(%d) on a %d-body Sim:\n%.300s\nvs a %d-body Sim:\n%.300s", c.n, opts.Bodies, got, c.n, want)
			}
		})
	}
}

// TestSessionLifecycleErrors pins the misuse error paths of the
// lifecycle API.
func TestSessionLifecycleErrors(t *testing.T) {
	opts := DefaultOptions(256, 2, LevelMergedBuild)
	opts.Steps, opts.Warmup = 3, 0
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()

	if err := sim.Step(0); err == nil {
		t.Fatal("Step(0) did not fail")
	}
	if err := sim.Step(-2); err == nil {
		t.Fatal("Step(-2) did not fail")
	}
	if err := sim.Step(4); err == nil {
		t.Fatal("Step past Options.Steps did not fail")
	}
	if got := sim.StepsDone(); got != 0 {
		t.Fatalf("failed Steps advanced the count to %d", got)
	}
	if err := sim.Step(2); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(2); err == nil {
		t.Fatal("Step overflowing the remaining budget did not fail")
	}
	if got := sim.StepsDone(); got != 2 {
		t.Fatalf("StepsDone = %d, want 2", got)
	}
	if _, err := sim.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Finish(); err == nil {
		t.Fatal("second Finish did not fail")
	}
	if err := sim.Step(1); err == nil {
		t.Fatal("Step after Finish did not fail")
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("Run after Finish did not fail")
	}
	sim.Release()
	if _, err := sim.Snapshot(); err == nil {
		t.Fatal("Snapshot after Release did not fail")
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("Run after Release did not fail")
	}
}

// TestRunCompletesSteppedSim: Run on a partially-stepped Sim finishes
// the remaining schedule — mixing the two styles is legal and, under
// simulate, still byte-identical to an uninterrupted Run.
func TestRunCompletesSteppedSim(t *testing.T) {
	opts := DefaultOptions(512, 4, LevelMergedBuild)
	opts.Steps, opts.Warmup = 4, 1
	refFp := resultFingerprint(t, runOnce(t, opts))
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	if err := sim.Step(1); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sim.StepsDone() != opts.Steps {
		t.Fatalf("Run left StepsDone at %d, want %d", sim.StepsDone(), opts.Steps)
	}
	if fp := resultFingerprint(t, res); fp != refFp {
		t.Fatalf("Step(1)+Run diverged from plain Run:\n%.300s\nvs\n%.300s", fp, refFp)
	}
}

// TestGatherBodiesRejects: the ID-indexed gather keeps its three
// rejections distinct — a body owned twice, a body whose ID is outside
// [0, n), and an ownership that misses a body — and each reaches the
// caller from Snapshot and from Finish (collect) alike.
func TestGatherBodiesRejects(t *testing.T) {
	for _, c := range []struct {
		name, want string
		// How each backend's state breaks: simulate owns refs into the
		// body heap, native owns slots whose bodies myBodies names by ID.
		simulate, native func(s *Sim)
	}{
		{"owned-twice", "owned by two threads",
			func(s *Sim) { s.ts[1].myBodies = append(s.ts[1].myBodies, s.ts[0].myBodies[0]) },
			func(s *Sim) { s.ts[1].myBodies[0].Idx = s.ts[0].myBodies[0].Idx }},
		{"id-too-large", "outside [0, 64)",
			func(s *Sim) { s.eng.(*simEngine).bodies.Raw(s.ts[0].myBodies[0]).ID = 64 },
			func(s *Sim) { s.ts[0].myBodies[0].Idx = 64 }},
		{"id-negative", "outside [0, 64)",
			func(s *Sim) { s.eng.(*simEngine).bodies.Raw(s.ts[1].myBodies[0]).ID = -1 },
			func(s *Sim) { s.ts[1].myBodies[0].Idx = -1 }},
		{"short-coverage", "ownership covers 63 bodies, want 64",
			func(s *Sim) { s.ts[1].myBodies = s.ts[1].myBodies[1:] },
			func(s *Sim) { s.ts[1].myBodies = s.ts[1].myBodies[1:] }},
	} {
		for _, mode := range []ExecMode{ModeSimulate, ModeNative} {
			t.Run(fmt.Sprintf("%s/%v", c.name, mode), func(t *testing.T) {
				opts := DefaultOptions(64, 2, LevelMergedBuild)
				opts.ExecMode = mode
				sim, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Release()
				if err := sim.Step(2); err != nil {
					t.Fatal(err)
				}
				if _, err := sim.Snapshot(); err != nil {
					t.Fatalf("Snapshot of the intact session: %v", err)
				}
				// The session is paused: its state is ours to break.
				if mode == ModeNative {
					c.native(sim)
				} else {
					c.simulate(sim)
				}
				if _, err := sim.Snapshot(); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("Snapshot: err = %v, want one containing %q", err, c.want)
				}
				if _, err := sim.Finish(); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("Finish: err = %v, want one containing %q", err, c.want)
				}
			})
		}
	}
}

// TestSnapshotBodiesInIDOrder: after redistribution (or, native, a new
// partition) has moved bodies between threads, Snapshot and Result still
// hold body i at index i, and it is the very body its owner holds.
func TestSnapshotBodiesInIDOrder(t *testing.T) {
	for _, threads := range []int{1, 3} {
		for _, mode := range []ExecMode{ModeSimulate, ModeNative} {
			t.Run(fmt.Sprintf("T=%d/%v", threads, mode), func(t *testing.T) {
				opts := DefaultOptions(700, threads, LevelMergedBuild)
				opts.ExecMode = mode
				sim, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Release()
				if err := sim.Step(opts.Steps); err != nil {
					t.Fatal(err)
				}
				snap, err := sim.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				migrated := 0
				for thr, st := range sim.ts {
					for k, ref := range st.myBodies {
						var b nbody.Body
						if fe, ok := sim.eng.(*flatEngine); ok {
							b = fe.body(fe.ts[thr].slotLo+k, ref.Idx)
						} else {
							b = *sim.eng.(*simEngine).bodies.Raw(ref)
						}
						if snap.Bodies[b.ID] != b {
							t.Fatalf("snapshot slot %d does not hold thread %d's body %d", b.ID, thr, b.ID)
						}
						if lo, hi := thr*opts.Bodies/threads, (thr+1)*opts.Bodies/threads; int(b.ID) < lo || int(b.ID) >= hi {
							migrated++
						}
					}
				}
				if threads > 1 && migrated == 0 {
					t.Fatal("no body left its initial block: the test exercised no migration")
				}
				res, err := sim.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if len(snap.Bodies) != opts.Bodies || len(res.Bodies) != opts.Bodies {
					t.Fatalf("%d snapshot and %d result bodies, want %d", len(snap.Bodies), len(res.Bodies), opts.Bodies)
				}
				for i := range snap.Bodies {
					if snap.Bodies[i].ID != int32(i) || res.Bodies[i] != snap.Bodies[i] {
						t.Fatalf("index %d holds snapshot body %d, result body %d", i, snap.Bodies[i].ID, res.Bodies[i].ID)
					}
				}
			})
		}
	}
}
