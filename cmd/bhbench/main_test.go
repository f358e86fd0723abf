package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upcbh/internal/bench"
)

// bhbench runs the command in-process and returns its exit status and
// both streams.
func bhbench(args ...string) (status int, stdout, stderr string) {
	var out, errw bytes.Buffer
	status = run(args, &out, &errw)
	return status, out.String(), errw.String()
}

func TestListNamesEveryExperiment(t *testing.T) {
	status, out, _ := bhbench("-list")
	if status != 0 {
		t.Fatalf("-list exited %d, want 0", status)
	}
	for _, e := range bench.All() {
		if !strings.Contains(out, "  "+e.ID+" ") {
			t.Errorf("-list does not name experiment %q", e.ID)
		}
	}
}

// TestUsageErrorsExit2: invocations that name nothing runnable are usage
// errors. -mode went with the harness-wide mode parameter: the tables are
// simulated-time tables.
func TestUsageErrorsExit2(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string // on stderr
	}{
		"no -exp":       {nil, ""},
		"unknown -exp":  {[]string{"-exp", "nope"}, "nope"},
		"bad -scenario": {[]string{"-exp", "table2", "-scenario", "nope"}, "nope"},
		"-mode is gone": {[]string{"-exp", "table2", "-mode", "native"}, "flag provided but not defined: -mode"},
	} {
		status, out, errw := bhbench(tc.args...)
		if status != 2 || !strings.Contains(errw, tc.want) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 mentioning %q", name, status, errw, tc.want)
		}
		if strings.Contains(out, "===") {
			t.Errorf("%s: an experiment ran:\n%s", name, out)
		}
	}
}

func TestJSONTrajectory(t *testing.T) {
	dir := t.TempDir()
	status, out, errw := bhbench("-exp", "table2", "-scale", "0.05", "-steps", "2", "-warmup", "1", "-json", "-out", dir)
	if status != 0 {
		t.Fatalf("exit %d, want 0\n%s", status, errw)
	}
	if !strings.Contains(out, "=== table2 ===") {
		t.Errorf("stdout lacks the experiment's table:\n%s", out)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var traj struct {
		Params  map[string]any    `json:"params"`
		Runner  bench.RunnerStats `json:"runner"`
		Reports []*bench.Report   `json:"reports"`
	}
	if err := json.Unmarshal(raw, &traj); err != nil {
		t.Fatalf("BENCH_results.json does not decode: %v", err)
	}
	if len(traj.Reports) != 1 || traj.Reports[0].ID != "table2" || len(traj.Reports[0].Configs) == 0 {
		t.Errorf("trajectory holds %d reports, want table2's with its configs", len(traj.Reports))
	}
	if _, ok := traj.Params["mode"]; ok || traj.Params["scale"] != 0.05 {
		t.Errorf("params stamp %v: want scale 0.05 and no mode", traj.Params)
	}
	// Every run stays resident: the cache budget is far above a suite's.
	if rs := traj.Runner; rs.Runs == 0 || rs.CachedEntries != rs.Runs || rs.CachedBytes == 0 || rs.CapacityEvictions != 0 {
		t.Errorf("runner stats %+v: want every run cached and no capacity eviction", rs)
	}
	if _, err := os.Stat(filepath.Join(dir, "table2.txt")); err != nil {
		t.Errorf("-out did not write the experiment's text: %v", err)
	}
}

// TestProfilesSurviveErrorExit: the profile writers are deferred in run,
// which returns its status instead of calling os.Exit, so a failing
// invocation still leaves a complete CPU profile (possibly with no
// samples) and a heap profile. With os.Exit in the body both were empty.
func TestProfilesSurviveErrorExit(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if status, _, _ := bhbench("-exp", "nope", "-cpuprofile", cpu, "-memprofile", mem); status != 2 {
		t.Fatalf("exit %d, want 2", status)
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err == nil {
			_, err = io.Copy(io.Discard, zr) // to the trailer: the stream was finished
		}
		f.Close()
		if err != nil {
			t.Errorf("%s is not a finished (gzip-framed) pprof profile: %v", filepath.Base(path), err)
		}
	}
	// A second profile can start: the first was stopped, not leaked.
	if status, _, errw := bhbench("-list", "-cpuprofile", cpu); status != 0 {
		t.Fatalf("profiling after a failed profiled run: exit %d\n%s", status, errw)
	}
}
