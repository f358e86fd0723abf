package core

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"upcbh/internal/upc"
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
// steady-state timestep advance: a single-thread native run at the
// merged level (flat local build + flat snapshot force — the full flat
// hot path) must stop allocating once its arenas have warmed up. The
// per-step malloc counts are sampled inside the SPMD thread via the
// step hook, with the GC disabled so background collection cannot
// perturb the counters.
func TestNativeSteadyStateZeroAlloc(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	const steps, warm = 8, 1
	mallocs := make([]uint64, 0, steps)
	opts := DefaultOptions(2048, 1, LevelMergedBuild)
	opts.Steps, opts.Warmup = steps, warm
	opts.ExecMode = ModeNative
	var bodyBuf unsafe.Pointer // the thread's first §5.2 body buffer
	opts.testStepHook = func(th *upc.Thread, step int) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs = append(mallocs, ms.Mallocs)
		bodyBuf = unsafe.Pointer(currentSim.bodies.Local(th, currentSim.ts[0].buf[0]))
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
	// The first steps may allocate (arena growth, stepPh warmup). The
	// final steps are the steady state the tentpole promises: 0 allocs.
	for i := steps - 3; i < steps; i++ {
		if d := mallocs[i] - mallocs[i-1]; d != 0 {
			t.Errorf("step %d allocated %d objects in steady state, want 0", i, d)
		}
	}

	// Off-heap claim: the flat arenas exist, were consumed, and the hot
	// arrays of the published snapshot live inside the mmap region —
	// GC-invisible — rather than on the Go heap.
	if sim.mem == nil {
		t.Fatal("native sim has no flat arena")
	}
	if sim.mem.Used() == 0 {
		t.Error("global flat arena unused")
	}
	if sim.tmem[0] == nil || sim.tmem[0].Used() == 0 {
		t.Error("thread-local flat arena unused")
	}
	sn := sim.flat.cur.Load()
	if sn == nil {
		t.Fatal("no published flat snapshot after the run")
	}
	mem := sim.mem.Bytes()
	lo := uintptr(unsafe.Pointer(&mem[0]))
	hi := lo + uintptr(len(mem))
	inArena := func(name string, p unsafe.Pointer) {
		if a := uintptr(p); a < lo || a >= hi {
			t.Errorf("%s at %#x is outside the arena [%#x,%#x)", name, a, lo, hi)
		}
	}
	inArena("Nodes", unsafe.Pointer(&sn.ft.Nodes[0]))
	inArena("Meta", unsafe.Pointer(&sn.ft.Meta[0]))
	inArena("Kids", unsafe.Pointer(&sn.ft.Kids[0]))
	inArena("PM", unsafe.Pointer(&sn.ft.PM[0]))
	inArena("Bodies.Pos", unsafe.Pointer(&sn.ft.Bodies.Pos[0]))
	inArena("Bodies.Mass", unsafe.Pointer(&sn.ft.Bodies.Mass[0]))

	// The thread's body chunk lives in its own arena, so the unwritten
	// slack of the 4x-sized double buffers is never resident.
	mem = sim.tmem[0].Bytes()
	lo = uintptr(unsafe.Pointer(&mem[0]))
	hi = lo + uintptr(len(mem))
	inArena("body buffer", bodyBuf)
}

// TestNativeFlatSnapshotCoversTree cross-checks the snapshot against the
// global tree it was taken from: every body appears exactly once and the
// root aggregates carry the full mass, for a configuration with
// migration (multi-thread, clustered scenario).
func TestNativeFlatSnapshotCoversTree(t *testing.T) {
	opts := DefaultOptions(1024, 4, LevelMergedBuild)
	opts.Steps, opts.Warmup = 2, 1
	opts.ExecMode = ModeNative
	opts.Scenario = "clustered"
	var snapBodies, snapCells []int
	opts.testStepHook = func(th *upc.Thread, step int) {
		if th.ID() != 0 {
			return
		}
		sn := currentSim.flat.cur.Load()
		if sn == nil {
			t.Error("no snapshot published by end of step")
			return
		}
		snapBodies = append(snapBodies, sn.ft.Bodies.Len())
		snapCells = append(snapCells, len(sn.ft.Nodes))
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

// TestNativeFlatSkipForLeafIdx is the direct unit test of the snapshot's
// self-skip index, in a configuration with real migration (multi-thread,
// clustered): for every owned body, skipFor either names the snapshot
// slot holding exactly that body's stale copy (leaf present at build
// time) or returns -1 (the body migrated this step into a fresh slot the
// snapshot has never seen), and the -1 count per thread is exactly that
// thread's migration count. The >0 leafIdx entries must be a bijection
// onto the snapshot's body slots.
func TestNativeFlatSkipForLeafIdx(t *testing.T) {
	opts := DefaultOptions(1024, 4, LevelMergedBuild)
	opts.Steps, opts.Warmup = 3, 1
	opts.ExecMode = ModeNative
	opts.Scenario = "clustered"
	var mu sync.Mutex
	checked := 0
	opts.testStepHook = func(th *upc.Thread, step int) {
		s := currentSim
		st := s.ts[th.ID()]
		sn := s.flat.cur.Load()
		if sn == nil {
			t.Error("no snapshot published")
			return
		}
		if th.ID() == 0 {
			// Bijection: the nonzero index entries cover each snapshot
			// slot exactly once.
			seen := make([]bool, sn.ft.Bodies.Len())
			nz := 0
			for _, shard := range sn.leafIdx {
				for _, v := range shard {
					if v == 0 {
						continue
					}
					slot := int(v - 1)
					if slot < 0 || slot >= len(seen) || seen[slot] {
						t.Errorf("step %d: leafIdx entry %d out of range or duplicated", step, v)
						continue
					}
					seen[slot] = true
					nz++
				}
			}
			if nz != sn.ft.Bodies.Len() {
				t.Errorf("step %d: %d leafIdx entries for %d snapshot slots", step, nz, sn.ft.Bodies.Len())
			}
			// Refs past the shard's indexed range are never leaves.
			if got := sn.skipFor(upc.Ref{Thr: 0, Idx: 1 << 30}); got != -1 {
				t.Errorf("out-of-range ref: skipFor = %d, want -1", got)
			}
		}
		// Per-thread: every owned body resolves to its own stale copy or
		// to -1, and the -1s are exactly this step's migrations.
		fresh := 0
		for _, br := range st.myBodies {
			slot := sn.skipFor(br)
			if slot < 0 {
				fresh++
				continue
			}
			if want := s.bodies.Raw(br).ID; sn.ft.Bodies.ID[slot] != want {
				t.Errorf("step %d thread %d: skipFor slot %d holds body %d, want %d",
					step, th.ID(), slot, sn.ft.Bodies.ID[slot], want)
			}
		}
		if migrated := len(st.remote[st.stepParity].refs); fresh != migrated {
			t.Errorf("step %d thread %d: %d bodies without snapshot leaf, but %d migrated",
				step, th.ID(), fresh, migrated)
		}
		mu.Lock()
		checked++
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
}

// TestNativeFlatRelaxedSyncStress exercises the barrier-free
// redistribute→force boundary hard: no Verify barrier, several steps,
// multiple threads, migration-heavy scenario. Run under -race this is
// the regression gate for the RCU snapshot publication; in any mode it
// cross-checks the relaxed schedule's physics against the fully
// barriered pointer path of the simulate backend.
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
