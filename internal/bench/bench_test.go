package bench

import (
	"os"
	"strings"
	"testing"

	"upcbh/internal/core"
)

// tinyParams keeps harness tests fast.
func tinyParams() Params {
	return Params{Scale: 0.05, MaxThreads: 8, Steps: 2, Warmup: 1}
}

// runText executes one experiment on a fresh Runner and returns the
// rendered text, for tests that only care about the layout.
func runText(t *testing.T, e Experiment, p Params) string {
	t.Helper()
	rep, err := e.Run(NewRunner(0), p)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Text
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9",
		"fig5", "fig6", "fig7", "fig8", "fig10", "fig11", "fig12", "fig13",
		"ext-cache", "ext-mpi", "ext-native", "imbalance",
	}
	got := map[string]bool{}
	for _, e := range All() {
		got[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(got), len(want))
	}
}

// TestDesignIndexMatchesRegistry keeps DESIGN.md §4's experiment table
// honest: the ids in its first column are exactly the registry's, so an
// experiment cannot be added, renamed or removed without the index
// following.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(raw), "\n## §4 ")
	if !ok {
		t.Fatal("DESIGN.md has no §4 heading")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	indexed := map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue // not a table row
		}
		id := strings.TrimSpace(cells[1])
		if id == "id" || strings.HasPrefix(id, "---") {
			continue // header and separator rows
		}
		if indexed[id] {
			t.Errorf("DESIGN.md §4 lists %q twice", id)
		}
		indexed[id] = true
	}
	for _, e := range All() {
		if !indexed[e.ID] {
			t.Errorf("experiment %q is registered but missing from DESIGN.md §4", e.ID)
		}
		delete(indexed, e.ID)
	}
	for id := range indexed {
		t.Errorf("DESIGN.md §4 lists %q, which is not a registered experiment", id)
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("table5"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("table99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableExperimentRuns(t *testing.T) {
	e, err := ByID("table5")
	if err != nil {
		t.Fatal(err)
	}
	out := runText(t, e, tinyParams())
	for _, phase := range []string{"Tree-building", "Force Comp.", "Total"} {
		if !strings.Contains(out, phase) {
			t.Errorf("output missing row %q:\n%s", phase, out)
		}
	}
	// Paper layout: the c-of-m row exists for table 5 but not table 8.
	if !strings.Contains(out, "C-of-m") {
		t.Errorf("table5 should include the c-of-m row")
	}
	e8, _ := ByID("table8")
	out8 := runText(t, e8, tinyParams())
	if strings.Contains(out8, "C-of-m") {
		t.Errorf("table8 should drop the c-of-m row (merged into tree building)")
	}
	if !strings.Contains(out8, "Redistribution") {
		t.Errorf("table8 should include redistribution")
	}
}

func TestFigureExperimentsRun(t *testing.T) {
	p := tinyParams()
	r := NewRunner(0)
	for _, id := range []string{"fig8", "fig10", "fig11", "fig12"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(r, p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Text) < 100 {
			t.Errorf("%s output suspiciously short:\n%s", id, rep.Text)
		}
		if len(rep.Configs) == 0 {
			t.Errorf("%s report records no configs", id)
		}
	}
}

// TestEveryRunnerExecutes smokes every remaining registry entry at a
// minimal workload, so a broken experiment cannot hide until bench time.
// All experiments share one Runner, exactly as bhbench -exp all does.
func TestEveryRunnerExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs every experiment")
	}
	p := Params{Scale: 0.02, MaxThreads: 4, Steps: 2, Warmup: 1}
	r := NewRunner(0)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(r, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Text) < 50 {
				t.Errorf("output suspiciously short:\n%s", rep.Text)
			}
		})
	}
	s := r.Stats()
	if s.Hits == 0 {
		t.Errorf("no cache hits across the full registry: %+v", s)
	}
	t.Logf("runner stats over all experiments: %d runs, %d hits (%.0f%% dedup)",
		s.Runs, s.Hits, 100*s.DedupFraction())
}

// TestModeComparisonExperiment: the ext-native experiment must print
// both backends' per-phase columns for the same configuration.
func TestModeComparisonExperiment(t *testing.T) {
	e, err := ByID("ext-native")
	if err != nil {
		t.Fatal(err)
	}
	out := runText(t, e, tinyParams())
	for _, want := range []string{"sim t(s)", "wall t(s)", "Force Comp.", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPhaseTableCSV(t *testing.T) {
	x := &Exec{R: NewRunner(0), P: tinyParams()}
	pt, err := strongScalingTable(x, core.LevelSubspace, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	csv := pt.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(pt.Threads)+1 {
		t.Errorf("CSV has %d lines, want %d", len(lines), len(pt.Threads)+1)
	}
	if !strings.HasPrefix(lines[0], "threads,") {
		t.Errorf("CSV header: %s", lines[0])
	}
	// Each data row: threads + NumPhases + total columns, and the row's
	// total must be the sum the Format() table prints.
	for i, line := range lines[1:] {
		cols := strings.Split(line, ",")
		if len(cols) != 2+int(core.NumPhases) {
			t.Errorf("row %d has %d columns, want %d: %s", i, len(cols), 2+int(core.NumPhases), line)
		}
	}
}

func TestParamsScaling(t *testing.T) {
	p := Params{Scale: 0.5, MaxThreads: 16}
	if n := p.bodies(16384); n != 8192 {
		t.Errorf("bodies = %d", n)
	}
	th := p.threads([]int{1, 2, 4, 8, 16, 32, 64})
	if th[len(th)-1] != 16 {
		t.Errorf("threads capped wrong: %v", th)
	}
	if n := (Params{Scale: 0.0001}).bodies(16384); n != 256 {
		t.Errorf("bodies floor = %d", n)
	}
}
