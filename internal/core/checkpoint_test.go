package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"upcbh/internal/arena"
	"upcbh/internal/hostenv"
	"upcbh/internal/nbody"
	"upcbh/internal/octree"
)

// checkpointAt runs opts for k steps, checkpoints, and returns the
// checkpoint bytes plus the still-paused source Sim (caller releases).
func checkpointAt(t *testing.T, opts Options, k int) ([]byte, *Sim) {
	t.Helper()
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if k > 0 {
		if err := sim.Step(k); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sim
}

// TestCheckpointRestoreEquivalence is the restore-equivalence matrix:
// checkpoint mid-run, restore, and demand that the restored simulation
// completes the schedule exactly as the uninterrupted run — and that
// taking the checkpoint did not perturb the source simulation either.
// Under the simulate backend "exactly" is byte-identical Results (phase
// tables, clocks, scheduler counters, final bodies); under native,
// wall-clock timings differ and the bodies must be identical, at any
// thread count.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	cases := []struct {
		level   Level
		mode    ExecMode
		threads int
		scen    string
	}{
		{LevelBaseline, ModeSimulate, 4, "plummer"},
		{LevelRedistribute, ModeSimulate, 4, "clustered"},
		{LevelMergedBuild, ModeSimulate, 4, "plummer"},
		{LevelMergedBuild, ModeSimulate, 4, "clustered"},
		{LevelSubspace, ModeSimulate, 4, "plummer"},
		{LevelMergedBuild, ModeNative, 1, "plummer"},
		{LevelMergedBuild, ModeNative, 4, "clustered"},
		{LevelSubspace, ModeNative, 4, "plummer"},
	}
	if testing.Short() {
		cases = cases[:3]
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/%s/p%d/%s", c.level, c.mode, c.threads, c.scen), func(t *testing.T) {
			opts := DefaultOptions(512, c.threads, c.level)
			opts.Scenario = c.scen
			opts.Steps, opts.Warmup = 4, 1
			opts.ExecMode = c.mode
			ref := runOnce(t, opts)

			ckpt, src := checkpointAt(t, opts, 2)
			defer src.Release()

			restored, err := Restore(bytes.NewReader(ckpt))
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Release()
			if restored.StepsDone() != 2 {
				t.Fatalf("restored sim at step %d, want 2", restored.StepsDone())
			}

			// The checkpoint must not have perturbed the source run.
			srcRes, err := src.Run()
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := restored.Run()
			if err != nil {
				t.Fatal(err)
			}

			if c.mode == ModeSimulate {
				refFp := resultFingerprint(t, ref)
				if fp := resultFingerprint(t, srcRes); fp != refFp {
					t.Fatalf("checkpoint perturbed the source run:\n%.300s\nvs\n%.300s", fp, refFp)
				}
				if fp := resultFingerprint(t, gotRes); fp != refFp {
					t.Fatalf("restored run diverged from the uninterrupted run:\n%.300s\nvs\n%.300s", fp, refFp)
				}
				sameBodies(t, gotRes.Bodies, ref.Bodies)
				return
			}
			// Native results are a pure function of the body set at any
			// thread count, so restore is exact here too (timings aside).
			sameBodies(t, srcRes.Bodies, ref.Bodies)
			sameBodies(t, gotRes.Bodies, ref.Bodies)
		})
	}
}

// TestCheckpointSnapshotAgrees: a snapshot of the restored simulation
// is byte-identical to a snapshot of the source at the same pause
// (simulate backend).
func TestCheckpointSnapshotAgrees(t *testing.T) {
	opts := DefaultOptions(512, 4, LevelMergedBuild)
	opts.Steps, opts.Warmup = 4, 1
	ckpt, src := checkpointAt(t, opts, 2)
	defer src.Release()
	restored, err := Restore(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Release()
	want, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if !bytes.Equal(wj, gj) {
		t.Fatalf("restored snapshot differs from source snapshot:\n%.400s\nvs\n%.400s", gj, wj)
	}
}

// TestCheckpointFileByteIdentical: CheckpointFile publishes exactly the
// bytes Checkpoint streams for a real simulation.
func TestCheckpointFileByteIdentical(t *testing.T) {
	opts := DefaultOptions(256, 2, LevelMergedBuild)
	opts.Steps, opts.Warmup = 3, 1
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	if err := sim.Step(1); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := sim.Checkpoint(&stream); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sim.ckpt")
	if err := sim.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), file) {
		t.Fatalf("stream (%d bytes) and mmap (%d bytes) checkpoints differ", stream.Len(), len(file))
	}
	restored, err := Restore(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	restored.Release()
}

// TestCheckpointStepZeroAndReuse: a checkpoint before the first step
// restores, and a restored sim can itself be checkpointed again.
func TestCheckpointStepZeroAndReuse(t *testing.T) {
	opts := DefaultOptions(256, 2, LevelMergedBuild)
	opts.Steps, opts.Warmup = 3, 1
	ckpt, src := checkpointAt(t, opts, 0)
	src.Release()
	restored, err := Restore(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Step(1); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := restored.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	restored.Release()
	second, err := Restore(bytes.NewReader(again.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Release()
	if second.StepsDone() != 1 {
		t.Fatalf("re-checkpointed sim restored at step %d, want 1", second.StepsDone())
	}
	if _, err := second.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSimContainerIndependentOfProcessHistory: a session's container is
// the same bytes whether or not a session of the same geometry, other
// bodies, ran and was released in the process before it.
func TestSimContainerIndependentOfProcessHistory(t *testing.T) {
	opts := DefaultOptions(2048, 4, LevelAsync)
	opts.Steps = 3
	before, sim := checkpointAt(t, opts, 1)
	sim.Release()
	other := opts
	other.Seed = opts.Seed + 1
	_, sim = checkpointAt(t, other, 2)
	sim.Release()
	after, sim := checkpointAt(t, opts, 1)
	sim.Release()
	if !bytes.Equal(before, after) {
		t.Error("a session's container changed after another session ran and was released")
	}
}

// TestCheckpointLifecycleErrors: finished and released Sims refuse to
// checkpoint with the lifecycle sentinels.
func TestCheckpointLifecycleErrors(t *testing.T) {
	opts := DefaultOptions(256, 2, LevelMergedBuild)
	opts.Steps, opts.Warmup = 2, 1
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Error("checkpoint of a finished Sim accepted")
	}
	sim.Release()
	if err := sim.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Error("checkpoint of a released Sim accepted")
	}
}

// TestRestoreRejects: corrupted, mismatched or garbage checkpoints are
// rejected with descriptive errors, never a crash or a half-restored
// Sim.
func TestRestoreRejects(t *testing.T) {
	opts := DefaultOptions(256, 2, LevelMergedBuild)
	opts.Steps, opts.Warmup = 2, 1
	ckpt, src := checkpointAt(t, opts, 1)
	defer src.Release()

	expectErr := func(name string, b []byte, wantSub string) {
		t.Helper()
		s, err := Restore(bytes.NewReader(b))
		if err == nil {
			s.Release()
			t.Fatalf("%s: accepted", name)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
		if !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: error %q is not ErrBadCheckpoint", name, err)
		}
	}

	expectErr("garbage", []byte("not a checkpoint at all........."), "bad magic")
	expectErr("empty", nil, "truncated")

	truncated := append([]byte(nil), ckpt...)
	expectErr("truncated", truncated[:len(truncated)-10], "truncated")

	flipped := append([]byte(nil), ckpt...)
	flipped[len(flipped)-1] ^= 0xff
	expectErr("payload corruption", flipped, "CRC")

	// A header whose key disagrees with the embedded Options.
	regions, err := src.checkpointRegions()
	if err != nil {
		t.Fatal(err)
	}
	var wrongKey bytes.Buffer
	if err := arena.WriteCheckpoint(&wrongKey, "bogus-key", src.StepsDone(), nil, regions); err != nil {
		t.Fatal(err)
	}
	expectErr("key mismatch", wrongKey.Bytes(), "key mismatch")

	// A header whose step disagrees with the embedded state.
	var wrongStep bytes.Buffer
	if err := arena.WriteCheckpoint(&wrongStep, src.Options().Key(), src.StepsDone()+1, nil, regions); err != nil {
		t.Fatal(err)
	}
	expectErr("step mismatch", wrongStep.Bytes(), "step mismatch")

	// CRC-valid containers whose state region smuggles out-of-range
	// values: the double-buffer geometry feeds unchecked hot-path
	// derefs (st.buf[st.cur], LocalSlice), so restore must bounds-check
	// it like it does the body refs — reject, never a later panic.
	mutated := func(f func(cs *ckptState)) []byte {
		t.Helper()
		return resealed(t, ckpt, func(cs *ckptState, _ map[string][]byte) { f(cs) })
	}

	expectErr("buffer index out of range",
		mutated(func(cs *ckptState) { cs.Threads[0].Cur = 7 }), "current-buffer index")
	expectErr("buffer ref outside shard",
		mutated(func(cs *ckptState) { cs.Threads[0].Buf[cs.Threads[0].Cur].Idx = 1 << 30 }), "current buffer")
	expectErr("buffer ref on wrong thread",
		mutated(func(cs *ckptState) { cs.Threads[1].Buf[cs.Threads[1].Cur].Thr = 0 }), "current buffer")
	expectErr("buffer capacity overrunning shard",
		mutated(func(cs *ckptState) { cs.Threads[0].BufCap = 1 << 30 }), "buffer")
	expectErr("occupancy past capacity",
		mutated(func(cs *ckptState) { cs.Threads[0].CurLen = cs.Threads[0].BufCap + 1 }), "occupancy")
	expectErr("owned count overflowing refs region",
		mutated(func(cs *ckptState) { cs.Threads[0].NOwned = 1 << 60 }), "owns")
	expectErr("buffer ref negative index",
		mutated(func(cs *ckptState) { cs.Threads[0].Buf[cs.Threads[0].Cur].Idx = -1 }), "current buffer")
	// Two refs naming one slot: the bodies region still holds n distinct
	// IDs, but the second body placed overwrites the first.
	expectErr("ref named twice",
		resealed(t, ckpt, dupRef), "owned by two threads")
	// A NaN position would reach the native flat build's depth limit.
	expectErr("NaN position",
		resealed(t, ckpt, nanPosition), "NaN or infinite")

	// Options that New would have panicked on (divide by zero, negative
	// slice length) rather than rejected.
	expectErr("zero-thread machine",
		mutated(func(cs *ckptState) { cs.Options.Machine.Threads = 0 }), "options rejected")
	expectErr("zero threads per node",
		mutated(func(cs *ckptState) { cs.Options.Machine.ThreadsPerNode = 0 }), "options rejected")
	expectErr("negative warmup",
		mutated(func(cs *ckptState) { cs.Options.Warmup = -1 }), "options rejected")
	// A configuration older builds ran and this one does not.
	expectErr("native below the cache level",
		mutated(func(cs *ckptState) { cs.Options.ExecMode, cs.Options.Level = ModeNative, LevelRedistribute }), "starts at level cache")

	// Step-phase rows that disagree with steps_done − warmup (two, at
	// step 3 after one warmup step), in the one table and in an older
	// container's per-thread rows: every later snapshot and Finish would
	// fail, so restore refuses them.
	opts.Steps = 4
	rowsCkpt, rowsSrc := checkpointAt(t, opts, 3)
	rowsSrc.Release()
	rows := func(f func(cs *ckptState)) []byte {
		t.Helper()
		return resealed(t, rowsCkpt, func(cs *ckptState, _ map[string][]byte) {
			if len(cs.StepPhases) != 2 {
				t.Fatalf("container carries %d step-phase rows, want 2", len(cs.StepPhases))
			}
			f(cs)
		})
	}
	older := func(cs *ckptState) { // the layout of older builds
		for i := range cs.Threads {
			cs.Threads[i].StepPh = slices.Clone(cs.StepPhases)
		}
		cs.StepPhases = nil
	}
	expectErr("step rows short of the steps done",
		rows(func(cs *ckptState) { cs.StepPhases = cs.StepPhases[:1] }), "carries 1 step-phase rows at step 3, want 2")
	expectErr("step rows past the steps done",
		rows(func(cs *ckptState) { cs.StepPhases = append(cs.StepPhases, PhaseTimes{}) }), "carries 3 step-phase rows")
	expectErr("no step rows",
		rows(func(cs *ckptState) { cs.StepPhases = nil }), "thread 0 carries 0 step-phase rows")
	expectErr("older layout, a thread's rows cut",
		rows(func(cs *ckptState) { older(cs); cs.Threads[1].StepPh = cs.Threads[1].StepPh[:1] }), "thread 1 carries 1 step-phase rows at step 3, want 2")
	expectErr("older layout, a thread's rows past the steps done",
		rows(func(cs *ckptState) { older(cs); cs.Threads[0].StepPh = append(cs.Threads[0].StepPh, PhaseTimes{}) }), "thread 0 carries 3")
	// Consistent per-thread rows reduce to the one table.
	var tables [2]*Result
	for i, ckpt := range [][]byte{rowsCkpt, rows(older)} {
		s, err := Restore(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		if tables[i], err = s.Finish(); err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	if !slices.Equal(tables[0].StepPhases, tables[1].StepPhases) || tables[0].Phases != tables[1].Phases {
		t.Errorf("older layout's rows reduce to %v (sum %v), want %v (sum %v)",
			tables[1].StepPhases, tables[1].Phases, tables[0].StepPhases, tables[0].Phases)
	}
}

// TestRestoreRejectsVersion1 pins the format bump: a container whose
// preamble says version 1 (written under the old Options.Key() format) is
// refused by version, and not by a key mismatch further in.
func TestRestoreRejectsVersion1(t *testing.T) {
	opts := DefaultOptions(256, 2, LevelMergedBuild)
	opts.Steps, opts.Warmup = 2, 1
	ckpt, src := checkpointAt(t, opts, 1)
	src.Release()
	binary.LittleEndian.PutUint32(ckpt[8:], 1)

	_, err := Restore(bytes.NewReader(ckpt))
	if !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), "unsupported checkpoint version 1") {
		t.Errorf("Restore of a version-1 container: %v, want ErrBadCheckpoint naming the version", err)
	}
}

// TestRestoreAcrossForceKernels: the header's env stamp records which
// force kernel wrote the container (hostenv.Env.ForceKernel) but is
// opaque to Restore, so a container written under any kernel restores
// under any other — and, the kernels being bit-identical, completes
// exactly like the uninterrupted run. The container is re-stamped with
// every known kernel name but this process's, in turn.
func TestRestoreAcrossForceKernels(t *testing.T) {
	opts := DefaultOptions(512, 1, LevelMergedBuild)
	opts.Steps, opts.Warmup = 4, 1
	opts.ExecMode = ModeNative
	ref := runOnce(t, opts)

	ckpt, src := checkpointAt(t, opts, 2)
	defer src.Release()
	c, err := arena.ReadCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	var env hostenv.Env
	if err := json.Unmarshal(c.Header.Env, &env); err != nil {
		t.Fatal(err)
	}
	if env.ForceKernel != octree.Kernel() {
		t.Fatalf("header env force_kernel = %q, want this process's %q", env.ForceKernel, octree.Kernel())
	}
	regions, err := src.checkpointRegions()
	if err != nil {
		t.Fatal(err)
	}

	known := []string{"portable", "avx2", "avx512"}
	var foreign []string
	for _, name := range known {
		if name != octree.Kernel() {
			foreign = append(foreign, name)
		}
	}
	if len(foreign) != len(known)-1 {
		t.Fatalf("Kernel() = %q is not one of the known kernels %v", octree.Kernel(), known)
	}
	for _, name := range foreign {
		if name == "" || name == octree.Kernel() {
			t.Fatalf("foreign kernel name %q under %q", name, octree.Kernel())
		}
		env.ForceKernel = name
		stamp, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := arena.WriteCheckpoint(&buf, opts.Key(), src.StepsDone(), stamp, regions); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(&buf)
		if err != nil {
			t.Fatalf("container stamped force_kernel=%q refused under %q: %v", name, octree.Kernel(), err)
		}
		got, err := restored.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameBodies(t, got.Bodies, ref.Bodies)
		restored.Release()
	}
}

// TestCheckpointRestoreFreshProcess re-executes the test binary so the
// restore happens in a process that never saw the original run: the
// child restores from a checkpoint file and prints the fingerprint of
// its completed Result, which must match the parent's uninterrupted
// run byte for byte (simulate backend).
func TestCheckpointRestoreFreshProcess(t *testing.T) {
	opts := DefaultOptions(512, 4, LevelMergedBuild)
	opts.Steps, opts.Warmup = 4, 1

	if path := os.Getenv("UPCBH_CKPT_RESTORE"); path != "" {
		// Child: restore, finish the schedule, print the fingerprint.
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sim, err := Restore(f)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Release()
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("FINGERPRINT %s\n", resultFingerprint(t, res))
		return
	}

	ref := runOnce(t, opts)
	dir := t.TempDir()
	path := filepath.Join(dir, "mid.ckpt")
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(2); err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	sim.Release()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestCheckpointRestoreFreshProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "UPCBH_CKPT_RESTORE="+path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process failed: %v\n%s", err, out)
	}
	var got string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "FINGERPRINT "); ok {
			got = rest
			break
		}
	}
	if got == "" {
		t.Fatalf("child printed no fingerprint:\n%s", out)
	}
	if want := resultFingerprint(t, ref); got != want {
		t.Fatalf("fresh-process restore diverged from the uninterrupted run:\n%.300s\nvs\n%.300s", got, want)
	}
}

// TestSnapshotMetaNoBodyGather pins satellite 1: SnapshotMeta carries
// the same metadata as Snapshot but skips the O(n) body gather and
// allocates only fixed-size metadata.
func TestSnapshotMetaNoBodyGather(t *testing.T) {
	opts := DefaultOptions(4096, 4, LevelMergedBuild)
	opts.Steps, opts.Warmup = 3, 1
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	if err := sim.Step(2); err != nil {
		t.Fatal(err)
	}
	meta, err := sim.SnapshotMeta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Bodies != nil {
		t.Fatalf("SnapshotMeta gathered %d bodies", len(meta.Bodies))
	}
	full, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Bodies) != opts.Bodies {
		t.Fatalf("Snapshot gathered %d bodies, want %d", len(full.Bodies), opts.Bodies)
	}
	full.Bodies = nil
	mj, _ := json.Marshal(meta)
	fj, _ := json.Marshal(full)
	if !bytes.Equal(mj, fj) {
		t.Fatalf("SnapshotMeta disagrees with Snapshot metadata:\n%.300s\nvs\n%.300s", mj, fj)
	}
	// Fixed-size metadata only: a handful of allocations (the snapshot
	// struct, the clocks and step-phase slices), independent of n.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sim.SnapshotMeta(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("SnapshotMeta allocates %v objects per call; body-independent metadata should need ~5", allocs)
	}
}

// TestRestoreOlderNativeContainer: a native container written before the
// flat-tree path dropped its lock array and snapshot epoch carries 2048
// idle lock horizons and a per-thread "flat_epoch"; both are ignored, and
// the run completes exactly like the uninterrupted one.
func TestRestoreOlderNativeContainer(t *testing.T) {
	opts := DefaultOptions(512, 3, LevelMergedBuild)
	opts.Steps, opts.Warmup = 4, 1
	opts.ExecMode = ModeNative
	ref := runOnce(t, opts)

	_, src := checkpointAt(t, opts, 2)
	defer src.Release()
	regions, err := src.checkpointRegions()
	if err != nil {
		t.Fatal(err)
	}
	var state map[string]any
	if err := json.Unmarshal(regions[0].Data, &state); err != nil {
		t.Fatal(err)
	}
	if n := len(state["locks"].([]any)); n != 0 {
		t.Fatalf("flat-path container carries %d lock horizons, want none", n)
	}
	state["locks"] = make([]float64, 2048)
	for _, th := range state["threads"].([]any) {
		th.(map[string]any)["flat_epoch"] = 2
	}
	if regions[0].Data, err = json.Marshal(state); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := arena.WriteCheckpoint(&buf, opts.Key(), src.StepsDone(), captureEnv(), regions); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatalf("older-format native container refused: %v", err)
	}
	defer restored.Release()
	got, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameBodies(t, got.Bodies, ref.Bodies)
}

// resealed decodes ckpt, lets mut change its state and regions, and
// writes it back as a CRC-valid container under the (possibly mutated)
// options' key: the crafted input an uploader could send.
func resealed(tb testing.TB, ckpt []byte, mut func(cs *ckptState, regions map[string][]byte)) []byte {
	tb.Helper()
	c, err := arena.ReadCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		tb.Fatal(err)
	}
	state, _ := c.Region(regState)
	var cs ckptState
	if err := json.Unmarshal(state, &cs); err != nil {
		tb.Fatal(err)
	}
	regions := map[string][]byte{}
	for _, r := range c.Header.Regions {
		data, _ := c.Region(r.Name)
		regions[r.Name] = append([]byte(nil), data...)
	}
	mut(&cs, regions)
	enc, err := json.Marshal(&cs)
	if err != nil {
		tb.Fatal(err)
	}
	out := []arena.NamedRegion{{Name: regState, Data: enc}}
	delete(regions, regState)
	for _, name := range slices.Sorted(maps.Keys(regions)) {
		out = append(out, arena.NamedRegion{Name: name, Data: regions[name]})
	}
	var buf bytes.Buffer
	if err := arena.WriteCheckpoint(&buf, cs.Options.Key(), c.Header.Step, c.Header.Env, out); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// expectBadCheckpoint restores b and wants ErrBadCheckpoint naming want,
// with no Sim left behind: a Sim that leaked would keep its threads
// parked at their step gate.
func expectBadCheckpoint(t *testing.T, name string, b []byte, want string) {
	t.Helper()
	before := runtime.NumGoroutine()
	s, err := Restore(bytes.NewReader(b))
	if err == nil {
		s.Release()
		t.Fatalf("%s: accepted", name)
	}
	if !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %q, want ErrBadCheckpoint naming %q", name, err, want)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%s: %d goroutines after the rejected restore, %d before", name, n, before)
	}
}

// TestRestoreHeapRefsNativeContainer: testdata/native-heaprefs.ckpt is a
// native container in the older layout — the body heap's shards in
// "heap", each thread's owned refs in "refs" — written by the build at
// commit 1387bf3, before native kept its bodies in the tree:
//
//	bhrun -mode native -level merged -n 64 -threads 2 -steps 6 -warmup 1 \
//	      -checkpoint native-heaprefs.ckpt -checkpoint-at 3
//
// It restores, and its run ends with every body field == an
// uninterrupted run of the same options under this build. The same
// container with one ref out of range, or one body owned twice, is
// ErrBadCheckpoint and leaves no Sim behind.
func TestRestoreHeapRefsNativeContainer(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "native-heaprefs.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := arena.ReadCheckpoint(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Region(regBodies); ok {
		t.Fatal("the fixture has a bodies region: it is not the older layout")
	}
	restored, err := Restore(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("older-layout native container refused: %v", err)
	}
	defer restored.Release()
	if o := restored.Options(); o.ExecMode != ModeNative || restored.StepsDone() != 3 {
		t.Fatalf("fixture restored as %v at step %d, want native at step 3", o.ExecMode, restored.StepsDone())
	}
	ref := runOnce(t, restored.Options())
	got, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameBodies(t, got.Bodies, ref.Bodies)

	expectBadCheckpoint(t, "ref out of range", resealed(t, fixture, func(cs *ckptState, r map[string][]byte) {
		binary.LittleEndian.PutUint32(r[regRefs][4:], uint32(cs.HeapLens[0])) // ref 0's Idx, one past shard 0
	}), "out of range")
	expectBadCheckpoint(t, "body owned twice", resealed(t, fixture, func(cs *ckptState, r map[string][]byte) {
		copy(r[regRefs][refBytes:2*refBytes], r[regRefs][:refBytes])
	}), "owned by two threads")
}

// dupRef copies a container's first body ref over its second: two refs
// naming one slot.
func dupRef(_ *ckptState, r map[string][]byte) {
	copy(r[regRefs][refBytes:2*refBytes], r[regRefs][:refBytes])
}

// nanPosition sets the first body record's Pos.X to NaN.
func nanPosition(_ *ckptState, r map[string][]byte) {
	var b [1]nbody.Body
	rec := bodyRecordBytes(b[:])
	copy(rec, r[regBodies])
	b[0].Pos.X = math.NaN()
	copy(r[regBodies], rec)
}

// TestRestoreHeapRefsSimContainer: testdata/sim-heaprefs.ckpt is a
// simulate container in the older layout — the body heap's shards in
// "heap", each thread's owned refs in "refs" — written by the build at
// commit 99bd73b, before a simulate container carried only its owned
// bodies:
//
//	bhrun -level subspace -n 256 -threads 4 -pernode 2 -steps 6 -warmup 1 \
//	      -checkpoint sim-heaprefs.ckpt -checkpoint-at 3
//
// It restores, and its run's Result and bodies are byte-equal to an
// uninterrupted run of the same options under this build. The same
// container with two refs naming one slot is ErrBadCheckpoint and leaves
// no Sim behind.
func TestRestoreHeapRefsSimContainer(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "sim-heaprefs.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := arena.ReadCheckpoint(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Region(regBodies); ok {
		t.Fatal("the fixture has a bodies region: it is not the older layout")
	}
	restored, err := Restore(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("older-layout simulate container refused: %v", err)
	}
	defer restored.Release()
	if o := restored.Options(); o.ExecMode != ModeSimulate || o.Level != LevelSubspace || restored.StepsDone() != 3 {
		t.Fatalf("fixture restored as %v/%v at step %d, want simulate/subspace at step 3", o.ExecMode, o.Level, restored.StepsDone())
	}
	ref := runOnce(t, restored.Options())
	got, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fp, want := resultFingerprint(t, got), resultFingerprint(t, ref); fp != want {
		t.Fatalf("restored run diverged from the uninterrupted run:\n%.300s\nvs\n%.300s", fp, want)
	}
	if !bytes.Equal(bodyRecordBytes(got.Bodies), bodyRecordBytes(ref.Bodies)) {
		t.Fatal("restored run's bodies differ from the uninterrupted run's")
	}

	expectBadCheckpoint(t, "ref named twice", resealed(t, fixture, dupRef), "owned by two threads")
}

// TestRestoreRejectsNativeBodies: a native container's bodies region is
// checked whole — its length, the owned counts it is sliced by, and the
// IDs, with gatherBodies' errors — before a Sim exists to index a body
// column with it.
func TestRestoreRejectsNativeBodies(t *testing.T) {
	opts := DefaultOptions(256, 3, LevelMergedBuild)
	opts.Steps, opts.Warmup = 3, 1
	opts.ExecMode = ModeNative
	ckpt, src := checkpointAt(t, opts, 1)
	src.Release()
	setID := func(k int, id int32) func(*ckptState, map[string][]byte) {
		return func(_ *ckptState, r map[string][]byte) {
			binary.LittleEndian.PutUint32(r[regBodies][k*bodyBytes+40:], uint32(id)) // Body.ID
		}
	}
	expectBadCheckpoint(t, "bodies region short", resealed(t, ckpt, func(_ *ckptState, r map[string][]byte) {
		r[regBodies] = r[regBodies][:len(r[regBodies])-bodyBytes]
	}), "bodies region holds")
	expectBadCheckpoint(t, "no body payload", resealed(t, ckpt, func(_ *ckptState, r map[string][]byte) {
		r["bodies-renamed"] = r[regBodies]
		delete(r, regBodies)
	}), "refs region holds 0 bytes")
	expectBadCheckpoint(t, "owned counts short of n", resealed(t, ckpt, func(cs *ckptState, _ map[string][]byte) {
		cs.Threads[2].NOwned--
	}), "ownership covers 255 bodies, want 256")
	expectBadCheckpoint(t, "owned count negative", resealed(t, ckpt, func(cs *ckptState, _ map[string][]byte) {
		cs.Threads[0].NOwned = -1
	}), "owns -1 of 256")
	expectBadCheckpoint(t, "id too large", resealed(t, ckpt, setID(5, 256)), "outside [0, 256)")
	expectBadCheckpoint(t, "id negative", resealed(t, ckpt, setID(0, -1)), "outside [0, 256)")
	expectBadCheckpoint(t, "id duplicated", resealed(t, ckpt, func(cs *ckptState, r map[string][]byte) {
		id := binary.LittleEndian.Uint32(r[regBodies][40:])
		setID(255, int32(id))(cs, r)
	}), "owned by two threads")
}

// TestNativeContainerIsLiveBodies: a native container carries the live
// bodies and nothing else — its payload outside "state" is exactly
// n × sizeof(Body) in one "bodies" region — and a simulate container
// the same region plus one ref per body: none of the body heap's slack.
func TestNativeContainerIsLiveBodies(t *testing.T) {
	const n = 600
	for _, threads := range []int{1, 3} {
		for _, mode := range []ExecMode{ModeNative, ModeSimulate} {
			t.Run(fmt.Sprintf("p%d/%v", threads, mode), func(t *testing.T) {
				opts := DefaultOptions(n, threads, LevelMergedBuild)
				opts.Steps, opts.Warmup = 3, 1
				opts.ExecMode = mode
				ckpt, src := checkpointAt(t, opts, 2)
				src.Release()
				c, err := arena.ReadCheckpoint(bytes.NewReader(ckpt))
				if err != nil {
					t.Fatal(err)
				}
				sizes := map[string]int{}
				for _, r := range c.Header.Regions {
					if r.Name != regState {
						sizes[r.Name] = int(r.Len)
					}
				}
				if mode == ModeNative {
					if want := map[string]int{regBodies: n * bodyBytes}; !maps.Equal(sizes, want) {
						t.Fatalf("payload outside state %v, want %v", sizes, want)
					}
					return
				}
				if want := map[string]int{regBodies: n * bodyBytes, regRefs: n * refBytes}; !maps.Equal(sizes, want) {
					t.Fatalf("payload outside state %v, want %v", sizes, want)
				}
			})
		}
	}
}
