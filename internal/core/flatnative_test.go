package core

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"upcbh/internal/arena"
)

// runFlatVsPointer runs one configuration under the given backend:
// ModeNative takes the flat paths, ModeSimulate is the pointer/NodeRef
// reference (the charged paper-reproduction paths).
func runFlatVsPointer(t *testing.T, n, threads int, level Level, mode ExecMode) *Result {
	t.Helper()
	opts := DefaultOptions(n, threads, level)
	opts.Steps, opts.Warmup = 2, 1
	opts.ExecMode = mode
	opts.Verify = true // structural gate on every step's global tree
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNativeFlatExactSingleThread pins the strongest equivalence claim:
// at one thread (no merge races), the flat local build emits exactly the
// tree the pointer insertion builds, and the flat snapshot kernel
// interacts in exactly forceCached's DFS order — so the entire native
// trajectory is bit-identical to the simulate backend's. This holds
// for the levels whose pointer force path is the plain DFS walk
// (LevelCacheTree, LevelMergedBuild); at LevelAsync/LevelSubspace the
// pointer path is forceAsync, whose frontier scheduling reorders the
// same interaction set, and those are covered by the tolerance test
// below.
func TestNativeFlatExactSingleThread(t *testing.T) {
	for _, level := range []Level{LevelCacheTree, LevelMergedBuild} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			flat := runFlatVsPointer(t, 1024, 1, level, ModeNative)
			ptr := runFlatVsPointer(t, 1024, 1, level, ModeSimulate)
			if flat.Interactions != ptr.Interactions {
				t.Errorf("interaction counts differ: flat %d pointer %d", flat.Interactions, ptr.Interactions)
			}
			for i := range flat.Bodies {
				fb, pb := flat.Bodies[i], ptr.Bodies[i]
				if fb.Pos != pb.Pos || fb.Vel != pb.Vel || fb.Acc != pb.Acc || fb.Phi != pb.Phi {
					t.Fatalf("body %d state differs:\nflat    %+v\npointer %+v", fb.ID, fb, pb)
				}
			}
		})
	}
}

// TestNativeFlatMatchesPointerThreads checks the multi-thread case,
// where concurrent merges may reorder commutative center-of-mass
// updates: native physics agrees with the simulate backend's pointer
// paths within FP-reordering tolerance.
func TestNativeFlatMatchesPointerThreads(t *testing.T) {
	for _, level := range []Level{LevelCacheTree, LevelMergedBuild, LevelAsync, LevelSubspace} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			flat := runFlatVsPointer(t, 2048, 4, level, ModeNative)
			ptr := runFlatVsPointer(t, 2048, 4, level, ModeSimulate)
			worstPos, worstVel := comparePhysics(t, flat, ptr)
			if worstPos > 1e-9 || worstVel > 1e-9 {
				t.Errorf("flat physics diverges from pointer: pos %g vel %g", worstPos, worstVel)
			}
			if flat.Interactions == 0 {
				t.Error("flat run recorded no interactions")
			}
		})
	}
}

// TestNativeSteadyStateZeroAlloc is the allocation-regression gate for
// steady-state timestep advance: a native run at the merged level (the
// parallel flat build, flat partition and flat force — the full flat hot
// path) must stop allocating once its arenas have warmed up, with one
// thread (no crown: the tree is built in place) and with two (crown,
// per-thread segments, stitch). The per-step malloc counts are sampled
// inside the SPMD thread via the step hook, with the GC disabled so
// background collection cannot perturb the counters.
func TestNativeSteadyStateZeroAlloc(t *testing.T) {
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("p%d", threads), func(t *testing.T) { testSteadyStateZeroAlloc(t, threads) })
	}
}

func testSteadyStateZeroAlloc(t *testing.T, threads int) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	const steps, warm = 30, 1
	mallocs := make([]uint64, 0, steps)
	opts := DefaultOptions(2048, threads, LevelMergedBuild)
	opts.Steps, opts.Warmup = steps, warm
	opts.ExecMode = ModeNative
	opts.testStepHook = func(th, step int) {
		if th != 0 {
			return
		}
		// Every thread is past the step's last barrier; a peer may be in
		// its own hook or parking, neither of which allocates.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs = append(mallocs, ms.Mallocs)
	}
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	currentSim = sim
	defer func() { currentSim = nil }()
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(mallocs) != steps {
		t.Fatalf("hook ran %d times, want %d", len(mallocs), steps)
	}
	// The first steps may allocate (arena growth and a thread's
	// ownership list the first time it claims more bodies than it ever
	// held). The final steps are the steady state the tentpole promises:
	// 0 allocs.
	for i := steps - 8; i < steps; i++ {
		if d := mallocs[i] - mallocs[i-1]; d != 0 {
			t.Errorf("step %d allocated %d objects in steady state, want 0", i, d)
		}
	}

	fe, ok := sim.eng.(*flatEngine)
	if !ok {
		t.Fatalf("native Sim runs a %T, not the flat engine", sim.eng)
	}
	treeInArena(t, fe)
	if threads > 1 {
		// A thread's arena holds its builder segment and sort scratch —
		// which, allocation-free as the steps above were, is the only place
		// they can be. It holds no body storage: a native Sim has no heap.
		for i, a := range fe.tmem {
			if a == nil || a.Used() == 0 {
				t.Errorf("thread %d: builder segment is not in the thread's arena", i)
			}
		}
	}
}

// treeInArena is the off-heap claim: the flat arenas exist, were
// consumed, and the hot arrays of the step's tree (whose body view is the
// body state), the builder's staging view and the ID-indexed body columns
// live inside the mmap region — GC-invisible — rather than on the Go
// heap.
func treeInArena(t *testing.T, fe *flatEngine) {
	t.Helper()
	if fe.mem == nil {
		t.Fatal("native sim has no flat arena")
	}
	inArena := func(a *arena.Arena, name string, p unsafe.Pointer) {
		t.Helper()
		if a == nil || a.Used() == 0 {
			t.Fatalf("%s: arena missing or unused", name)
		}
		mem := a.Bytes()
		lo := uintptr(unsafe.Pointer(&mem[0]))
		if addr := uintptr(p); addr < lo || addr >= lo+uintptr(len(mem)) {
			t.Errorf("%s at %#x is outside its arena [%#x,%#x)", name, addr, lo, lo+uintptr(len(mem)))
		}
	}
	ft := &fe.Tree
	inArena(fe.mem, "Nodes", unsafe.Pointer(&ft.Nodes[0]))
	inArena(fe.mem, "Meta", unsafe.Pointer(&ft.Meta[0]))
	inArena(fe.mem, "Kids", unsafe.Pointer(&ft.Kids[0]))
	inArena(fe.mem, "PM", unsafe.Pointer(&ft.PM[0]))
	inArena(fe.mem, "Bodies.Pos", unsafe.Pointer(&ft.Bodies.Pos[0]))
	inArena(fe.mem, "Bodies.Mass", unsafe.Pointer(&ft.Bodies.Mass[0]))
	inArena(fe.mem, "Src.Pos", unsafe.Pointer(&fe.Src.Pos[0]))
	inArena(fe.mem, "ids", unsafe.Pointer(&fe.ids[0]))
	inArena(fe.mem, "vel", unsafe.Pointer(&fe.vel[0]))
	inArena(fe.mem, "acc", unsafe.Pointer(&fe.acc[0]))
	inArena(fe.mem, "cost", unsafe.Pointer(&fe.cost[0]))
}

// TestNativeSimHoldsNoPointerTree: native means the flat path, so a
// native Sim runs the flat engine and builds none of the simulator's
// state — no body heap (its bodies live in the tree), no cells heap (a
// 16 384-entry chunk table per thread), no lock array, no shared
// scalars, no subspace scratch or transparent caches, all of which only
// simEngine holds — through a step, a checkpoint round trip and Release.
func TestNativeSimHoldsNoPointerTree(t *testing.T) {
	opts := DefaultOptions(64, 1, LevelSubspace)
	opts.ExecMode = ModeNative
	opts.TransparentCache = true
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	if err := sim.Step(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Release()
	for name, s := range map[string]*Sim{"fresh": sim, "restored": restored} {
		if _, ok := s.eng.(*flatEngine); !ok {
			t.Errorf("%s native Sim runs a %T, not the flat engine", name, s.eng)
		}
	}
}

// TestNativeFlatSnapshotCoversTree cross-checks the step's flat tree
// against the body set it was built from: verifyFlat on every step (every
// body exactly once, exact costs, additive masses), and the slot and
// cell counts seen from outside, for a configuration with migration
// (multi-thread, clustered scenario).
func TestNativeFlatSnapshotCoversTree(t *testing.T) {
	opts := DefaultOptions(1024, 4, LevelMergedBuild)
	opts.Steps, opts.Warmup = 2, 1
	opts.ExecMode = ModeNative
	opts.Scenario = "clustered"
	opts.Verify = true
	var snapBodies, snapCells []int
	opts.testStepHook = func(th, step int) {
		if th != 0 {
			return
		}
		ft := &currentSim.eng.(*flatEngine).Tree
		snapBodies = append(snapBodies, ft.Bodies.Len())
		snapCells = append(snapCells, len(ft.Nodes))
	}
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	currentSim = sim
	defer func() { currentSim = nil }()
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, nb := range snapBodies {
		if nb != opts.Bodies {
			t.Errorf("step %d: snapshot holds %d bodies, want %d", i, nb, opts.Bodies)
		}
		if snapCells[i] < 1 || snapCells[i] > 2*opts.Bodies {
			t.Errorf("step %d: implausible snapshot cell count %d", i, snapCells[i])
		}
	}
}

// TestNativeFlatSkipForLeafIdx is the direct unit test of the force
// phase's slot table, in a configuration with real migration
// (multi-thread, clustered): a thread's owned bodies are exactly the tree
// slots slotLo, slotLo+1, … in myBodies order — the staging table names
// each slot's body, and advance moved that slot by that body's velocity,
// so the slot is the self-skip — and the owned bodies staged by another
// thread (the one that advanced them last step) are exactly the
// ownership changes the step counted as migrations.
func TestNativeFlatSkipForLeafIdx(t *testing.T) {
	opts := DefaultOptions(1024, 4, LevelMergedBuild)
	opts.Steps, opts.Warmup = 3, 1
	opts.ExecMode = ModeNative
	opts.Scenario = "clustered"
	var mu sync.Mutex
	checked, migratedTotal := 0, 0
	counted := make([]int, 4) // per thread: its migration count at its previous hook
	opts.testStepHook = func(th, step int) {
		s := currentSim
		me := th
		fe := s.eng.(*flatEngine)
		st := fe.ts[me]
		ft := &fe.Tree
		moved := 0
		for i, r := range st.myBodies {
			slot := st.slotLo + i
			src := ft.Bodies.ID[slot]
			if got := fe.ids[src].Idx; got != r.Idx {
				t.Errorf("step %d thread %d: slot %d holds body %d, not owned body %d", step, me, slot, got, r.Idx)
			}
			if want := fe.Src.Pos[src].AddScaled(fe.vel[r.Idx], opts.Dt); ft.Bodies.Pos[slot] != want {
				t.Errorf("step %d thread %d: slot %d was not advanced as body %d", step, me, slot, r.Idx)
			}
			if int(r.Thr) != me {
				moved++
			}
		}
		if step >= opts.Warmup {
			if d := st.migrated - counted[me]; d != moved {
				t.Errorf("step %d thread %d: %d owned bodies were staged by another thread, but %d counted as migrated",
					step, me, moved, d)
			}
			counted[me] = st.migrated
		}
		mu.Lock()
		checked++
		migratedTotal += moved
		mu.Unlock()
	}
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	currentSim = sim
	defer func() { currentSim = nil }()
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := opts.Steps * 4; checked != want {
		t.Fatalf("hook checked %d thread-steps, want %d", checked, want)
	}
	if migratedTotal == 0 {
		t.Fatal("no body migrated: the configuration does not exercise the slot table")
	}
}

// TestNativeFlatRelaxedSyncStress exercises the barrier-free stretch
// from the tree barrier to the force barrier hard: no Verify barrier,
// several steps, multiple threads, migration-heavy scenario. Run under
// -race this is the regression gate for partition, redistribute and
// force overlapping across threads; in any mode it cross-checks the
// relaxed schedule's physics against the fully barriered pointer path of
// the simulate backend.
func TestNativeFlatRelaxedSyncStress(t *testing.T) {
	for _, level := range []Level{LevelCacheTree, LevelMergedBuild} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			mk := func(mode ExecMode) *Result {
				opts := DefaultOptions(2048, 4, level)
				opts.Steps, opts.Warmup = 5, 1
				opts.ExecMode = mode
				opts.Scenario = "clustered"
				sim, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			flat := mk(ModeNative)
			ptr := mk(ModeSimulate)
			worstPos, worstVel := comparePhysics(t, flat, ptr)
			if worstPos > 1e-9 || worstVel > 1e-9 {
				t.Errorf("relaxed-sync physics diverges from barriered pointer path: pos %g vel %g", worstPos, worstVel)
			}
		})
	}
}

// currentSim lets a step hook reach the Sim under test (hooks receive
// only the thread).
var currentSim *Sim
