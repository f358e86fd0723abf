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
	"strings"
	"syscall"
	"testing"
	"time"

	"upcbh"
)

func streamSim(t *testing.T) *upcbh.Sim {
	t.Helper()
	opts := upcbh.DefaultOptions(256, 2, upcbh.LevelMergedBuild)
	opts.Steps, opts.Warmup = 4, 1
	sim, err := upcbh.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestRunStreamEmitsMonotoneSnapshots: the happy path — step 0 first,
// strictly increasing step indices, ending at -steps.
func TestRunStreamEmitsMonotoneSnapshots(t *testing.T) {
	var buf bytes.Buffer
	if err := runStream(&buf, streamSim(t), 4, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	var steps []int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var snap upcbh.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
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
// here over a method-less twin of the type.
func TestRunStreamBytesAreEncodingJSONs(t *testing.T) {
	type plainSnapshot upcbh.Snapshot
	for _, withBodies := range []bool{true, false} {
		var got, want bytes.Buffer
		if err := runStream(&got, streamSim(t), 4, 1, withBodies, nil); err != nil {
			t.Fatal(err)
		}
		sim := streamSim(t)
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
	err := runStream(w, streamSim(t), 4, 1, false, nil)
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
	if err := runStream(&buf, streamSim(t), 4, 1, false, sig); err != nil {
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
// captured step, and the remaining snapshot lines are byte-identical to
// the tail of the uninterrupted stream.
func TestRunStreamFromRestoredSim(t *testing.T) {
	opts := upcbh.DefaultOptions(256, 2, upcbh.LevelMergedBuild)
	opts.Steps, opts.Warmup = 4, 1

	var ref bytes.Buffer
	sim, err := upcbh.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := runStream(&ref, sim, opts.Steps, 1, false, nil); err != nil {
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
	if err := runStream(&got, restored, opts.Steps, 1, false, nil); err != nil {
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
		if line != refLines[i+2] {
			t.Fatalf("restored stream frame %d diverged:\n%s\nvs\n%s", i, line, refLines[i+2])
		}
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
	if args := os.Getenv("UPCBH_BHRUN_ARGS"); args != "" {
		os.Args = append([]string{"bhrun"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []string{"baseline", "scalars", "redistribute"} {
		cmd := exec.Command(exe, "-test.run", "^TestNativeBelowCacheIsUsageError$")
		cmd.Env = append(os.Environ(), "UPCBH_BHRUN_ARGS=-n 64 -mode native -level "+level)
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
