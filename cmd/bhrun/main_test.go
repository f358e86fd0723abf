package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"upcbh"
)

// TestMain runs bhrun's main() instead of the tests when the
// environment marks this process as a bhrun child (runBhrun).
func TestMain(m *testing.M) {
	if os.Getenv("UPCBH_BHRUN_CHILD") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBhrun re-executes this test binary as `bhrun args...` and returns
// its stdout, its stderr and its exit status.
func runBhrun(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UPCBH_BHRUN_CHILD=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	_ = cmd.Run() // a process that never ran has exit status -1
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// forStreamModes runs test as a subtest on each backend.
func forStreamModes(t *testing.T, test func(*testing.T, upcbh.ExecMode)) {
	for _, mode := range []upcbh.ExecMode{upcbh.ModeSimulate, upcbh.ModeNative} {
		t.Run(mode.String(), func(t *testing.T) { test(t, mode) })
	}
}

func streamSim(t *testing.T, mode upcbh.ExecMode) *upcbh.Sim {
	t.Helper()
	opts := upcbh.DefaultOptions(256, 2, upcbh.LevelMergedBuild)
	opts.ExecMode = mode
	opts.Steps, opts.Warmup = 4, 1
	sim, err := upcbh.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestRunStreamEmitsMonotoneSnapshots: the happy path on both backends —
// step 0 first, strictly increasing step indices, ending at -steps, and
// every frame carrying the schedule and one clock per thread.
func TestRunStreamEmitsMonotoneSnapshots(t *testing.T) {
	forStreamModes(t, testRunStreamEmitsMonotoneSnapshots)
}

func testRunStreamEmitsMonotoneSnapshots(t *testing.T, mode upcbh.ExecMode) {
	var buf bytes.Buffer
	if err := runStream(&buf, streamSim(t, mode), 4, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	var steps []int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var snap upcbh.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		if snap.Steps != 4 || snap.ExecMode != mode || len(snap.Clocks) != snap.Threads {
			t.Fatalf("frame at step %d: steps %d, mode %v, %d clocks for %d threads",
				snap.Step, snap.Steps, snap.ExecMode, len(snap.Clocks), snap.Threads)
		}
		steps = append(steps, snap.Step)
	}
	want := []int{0, 2, 4}
	if len(steps) != len(want) {
		t.Fatalf("emitted steps %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("emitted steps %v, want %v", steps, want)
		}
	}
}

// TestRunStreamBytesAreEncodingJSONs: -stream writes through
// Snapshot.AppendJSON, and the stream is the contract — a whole
// -snap-bodies run (and a bodies-less one) is byte for byte what the
// json.Encoder this writer replaced emits for the same deterministic run,
// here over a method-less twin of the type, every line after the first
// holding only its own step's step_phases row.
func TestRunStreamBytesAreEncodingJSONs(t *testing.T) {
	type plainSnapshot upcbh.Snapshot
	for _, withBodies := range []bool{true, false} {
		var got, want bytes.Buffer
		if err := runStream(&got, streamSim(t, upcbh.ModeSimulate), 4, 1, withBodies, nil); err != nil {
			t.Fatal(err)
		}
		sim := streamSim(t, upcbh.ModeSimulate)
		defer sim.Release()
		enc := json.NewEncoder(&want)
		for step := 0; ; step++ {
			snap, err := sim.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !withBodies {
				snap.Bodies = nil
			}
			if step > 0 {
				snap.StepPhases = snap.StepPhases[max(len(snap.StepPhases)-1, 0):]
			}
			if err := enc.Encode((*plainSnapshot)(snap)); err != nil {
				t.Fatal(err)
			}
			if step == 4 {
				break
			}
			if err := sim.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("bodies=%v: the %d-byte stream differs from json.Encoder's %d bytes", withBodies, got.Len(), want.Len())
		}
		if n := bytes.Count(got.Bytes(), []byte("\n")); n != 5 {
			t.Fatalf("bodies=%v: %d lines, want 5", withBodies, n)
		}
	}
}

// allocWriter discards what is written and records the bytes the
// process had allocated at each Write.
type allocWriter struct{ at []uint64 }

func (w *allocWriter) Write(p []byte) (int, error) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.at = append(w.at, m.TotalAlloc)
	return len(p), nil
}

// TestRunStreamReusesBodies: -snap-bodies gathers every line's bodies
// into one reused slice, so a bodies line after the first few allocates
// less than one body gather.
func TestRunStreamReusesBodies(t *testing.T) {
	opts := upcbh.DefaultOptions(2048, 1, upcbh.LevelMergedBuild)
	opts.ExecMode = upcbh.ModeNative
	opts.Steps, opts.Warmup = 6, 0
	sim, err := upcbh.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := &allocWriter{at: make([]uint64, 0, opts.Steps+1)}
	if err := runStream(w, sim, opts.Steps, 1, true, nil); err != nil {
		t.Fatal(err)
	}
	const warm = 2 // lines whose allocations are the buffers' first growth
	n := len(w.at) - 1
	per := (w.at[n] - w.at[warm]) / uint64(n-warm)
	gather := uint64(opts.Bodies) * uint64(unsafe.Sizeof(upcbh.Body{}))
	t.Logf("%d B per bodies line; one body gather is %d B", per, gather)
	if per >= gather {
		t.Errorf("a bodies line allocated %d B; one body gather is %d B", per, gather)
	}
}

// TestRunStreamLinesCarryTheirOwnRows: at -snap-every 1 every line after
// the first carries one step_phases row, its own step's, so a stream's
// bytes per line do not grow with its age; the first line carries the
// whole table, here of a restored run's two steps.
func TestRunStreamLinesCarryTheirOwnRows(t *testing.T) {
	opts := upcbh.DefaultOptions(64, 2, upcbh.LevelMergedBuild)
	opts.ExecMode = upcbh.ModeNative
	opts.Steps, opts.Warmup = 40, 0
	src, err := upcbh.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Release()
	if err := src.Step(2); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := src.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	sim, err := upcbh.Restore(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runStream(&buf, sim, opts.Steps, 1, false, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != opts.Steps-1 {
		t.Fatalf("%d lines, want %d", len(lines), opts.Steps-1)
	}
	for i, line := range lines {
		var snap upcbh.Snapshot
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			t.Fatal(err)
		}
		want := 1
		if i == 0 {
			want = 2
		}
		if len(snap.StepPhases) != want {
			t.Fatalf("line %d (step %d) carries %d step_phases rows, want %d", i, snap.Step, len(snap.StepPhases), want)
		}
	}
}

// brokenPipe fails every write after the first n with EPIPE, emulating
// `bhrun -stream | head -1` where the downstream consumer has exited.
type brokenPipe struct {
	writes int
	limit  int
}

func (b *brokenPipe) Write(p []byte) (int, error) {
	b.writes++
	if b.writes > b.limit {
		return 0, &os.PathError{Op: "write", Path: "|1", Err: syscall.EPIPE}
	}
	return len(p), nil
}

// TestRunStreamEPIPEIsClean: a downstream close mid-stream must surface
// as an error runStream classifies as clean (downstreamClosed), with the
// session torn down — the regression was fatal()-ing with exit 1 and no
// Finish/Release.
func TestRunStreamEPIPEIsClean(t *testing.T) {
	w := &brokenPipe{limit: 1}
	err := runStream(w, streamSim(t, upcbh.ModeSimulate), 4, 1, false, nil)
	if err == nil {
		t.Fatal("broken pipe surfaced no error to classify")
	}
	if !downstreamClosed(err) {
		t.Fatalf("EPIPE not classified as a clean downstream close: %v", err)
	}
	if !strings.Contains(err.Error(), "broken pipe") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRunStreamSignalStopsCleanly: a pending SIGINT/SIGTERM ends the
// stream at the next step boundary with a finished, released session and
// a nil error (exit 0).
func TestRunStreamSignalStopsCleanly(t *testing.T) {
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt // already pending: the loop must stop before stepping further
	var buf bytes.Buffer
	if err := runStream(&buf, streamSim(t, upcbh.ModeSimulate), 4, 1, false, sig); err != nil {
		t.Fatalf("signalled stream did not stop cleanly: %v", err)
	}
	// Only the step-0 snapshot made it out before the signal was seen.
	lines := strings.Count(buf.String(), "\n")
	if lines != 1 {
		t.Fatalf("signalled stream emitted %d snapshots, want 1 (step 0)", lines)
	}
	var snap upcbh.Snapshot
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Step != 0 {
		t.Fatalf("first snapshot at step %d, want 0", snap.Step)
	}
}

// TestRunStreamFromRestoredSim: a restored simulation streams from its
// captured step, and the remaining snapshot lines are the tail of the
// uninterrupted stream: byte-identical under simulate, with identical
// bodies under native (whose clocks and phase times are wall-clock).
func TestRunStreamFromRestoredSim(t *testing.T) {
	forStreamModes(t, testRunStreamFromRestoredSim)
}

func testRunStreamFromRestoredSim(t *testing.T, mode upcbh.ExecMode) {
	opts := upcbh.DefaultOptions(256, 2, upcbh.LevelMergedBuild)
	opts.ExecMode = mode
	opts.Steps, opts.Warmup = 4, 1
	native := mode == upcbh.ModeNative

	var ref bytes.Buffer
	sim, err := upcbh.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := runStream(&ref, sim, opts.Steps, 1, native, nil); err != nil {
		t.Fatal(err)
	}

	src, err := upcbh.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Release()
	if err := src.Step(2); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ck.bin"
	if err := src.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := upcbh.Restore(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runStream(&got, restored, opts.Steps, 1, native, nil); err != nil {
		t.Fatal(err)
	}

	refLines := strings.Split(strings.TrimSpace(ref.String()), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(refLines) != 5 || len(gotLines) != 3 {
		t.Fatalf("stream lengths: uninterrupted %d, restored %d (want 5 and 3)", len(refLines), len(gotLines))
	}
	// The restored stream's frames are the uninterrupted stream's steps
	// 2..4, byte for byte.
	for i, line := range gotLines {
		want := refLines[i+2]
		if native { // the bodies, the frame's last field, as written
			line, want = line[strings.Index(line, `"bodies":`):], want[strings.Index(want, `"bodies":`):]
		}
		if line != want {
			t.Fatalf("restored stream frame %d diverged:\n%s\nvs\n%s", i, line, want)
		}
	}
}

// TestCheckpointRestoreReport: a run that writes a container at step 3
// and a run restored from it print the uninterrupted run's report byte
// for byte, the restored one resuming at step 3; a container with its
// last byte flipped is refused with an error that names the CRC.
func TestCheckpointRestoreReport(t *testing.T) {
	flags := []string{"-n", "2048", "-threads", "4", "-steps", "6", "-warmup", "1", "-level", "subspace"}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ref, _, _ := runBhrun(t, flags...)
	mid, stderr, code := runBhrun(t, append(flags, "-checkpoint", ckpt, "-checkpoint-at", "3")...)
	if code != 0 || mid != ref {
		t.Fatalf("checkpointing run: exit %d, report identical to the uninterrupted one: %v\n%s", code, mid == ref, stderr)
	}
	restored, stderr, code := runBhrun(t, "-restore", ckpt)
	if code != 0 || restored != ref || !strings.Contains(stderr, "at step 3 of 6") {
		t.Fatalf("restored run: exit %d, report identical to the uninterrupted one: %v, want resumed at step 3:\n%s", code, restored == ref, stderr)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(ckpt, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := runBhrun(t, "-restore", ckpt); code != 1 || !strings.Contains(strings.ToUpper(stderr), "CRC") {
		t.Fatalf("corrupted container: exit %d, want 1 with an error naming the CRC: %s", code, stderr)
	}
}

// TestCheckpointFileKilledMidWrite: SIGKILL delivered while -checkpoint
// is writing must never leave a torn container at the target path — the
// atomic temp-file + rename contract of arena.WriteFileCheckpoint. A
// child process writes the same checkpoint file in a tight loop; the
// parent kills it at varying points and asserts the target is either
// absent or a complete, restorable container. (A *.tmp sibling may
// survive the kill; that is the documented, harmless residue.)
func TestCheckpointFileKilledMidWrite(t *testing.T) {
	if target := os.Getenv("UPCBH_KILL_CKPT"); target != "" {
		// Child: pause a small run at step 2 and overwrite the container
		// until killed.
		opts := upcbh.DefaultOptions(2048, 2, upcbh.LevelMergedBuild)
		opts.Steps, opts.Warmup = 4, 1
		sim, err := upcbh.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Step(2); err != nil {
			t.Fatal(err)
		}
		fmt.Println("CHILD-WRITING")
		for {
			if err := sim.CheckpointFile(target); err != nil {
				t.Fatal(err)
			}
		}
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for i, delay := range []time.Duration{2 * time.Millisecond, 8 * time.Millisecond, 25 * time.Millisecond} {
		target := filepath.Join(t.TempDir(), "kill.ckpt")
		cmd := exec.Command(exe, "-test.run", "^TestCheckpointFileKilledMidWrite$", "-test.v")
		cmd.Env = append(os.Environ(), "UPCBH_KILL_CKPT="+target)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(out)
		ready := false
		for sc.Scan() {
			if strings.Contains(sc.Text(), "CHILD-WRITING") {
				ready = true
				break
			}
		}
		if !ready {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("iteration %d: child never started writing", i)
		}
		time.Sleep(delay)
		if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
			t.Fatal(err)
		}
		_ = cmd.Wait()

		if _, err := os.Stat(target); err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("iteration %d: stat target: %v", i, err)
			}
			continue // killed before the first rename: target absent is correct
		}
		f, err := os.Open(target)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := upcbh.Restore(f)
		f.Close()
		if err != nil {
			t.Fatalf("iteration %d: surviving container is torn: %v", i, err)
		}
		if sim.StepsDone() != 2 {
			t.Fatalf("iteration %d: restored at step %d, want 2", i, sim.StepsDone())
		}
		sim.Release()
	}
}

// TestNativeBelowCacheIsUsageError: -mode native starts at -level cache.
// A lower level is refused as a usage error (exit 2, the floor named)
// before anything is built — the child re-executes this test binary as
// bhrun, the same way TestCheckpointFileKilledMidWrite gets its child.
func TestNativeBelowCacheIsUsageError(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []string{"baseline", "scalars", "redistribute"} {
		cmd := exec.Command(exe, "-n", "64", "-mode", "native", "-level", level)
		cmd.Env = append(os.Environ(), "UPCBH_BHRUN_CHILD=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-mode native -level %s: %v, want exit status 2\n%s", level, err, out)
		}
		if !strings.Contains(string(out), "starts at level cache") || strings.Contains(string(out), "times are") {
			t.Errorf("-mode native -level %s: output does not name the floor, or a run started:\n%s", level, out)
		}
	}
}
