package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"upcbh/internal/nbody"
	"upcbh/internal/vec"
)

// plainSnapshot is the appender's oracle: Snapshot's fields with none of
// its methods, so encoding/json reflects over it whatever marshaler
// Snapshot may one day grow.
type plainSnapshot Snapshot

// checkAppendJSON demands that AppendJSON and encoding/json agree on snap:
// the same bytes, or both an error — and on an error the destination comes
// back untouched.
func checkAppendJSON(t *testing.T, snap *Snapshot) {
	t.Helper()
	want, wantErr := json.Marshal((*plainSnapshot)(snap))
	prefix := []byte("kept:")
	got, err := snap.AppendJSON(prefix)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendJSON clobbered the destination's prefix: %.40q", got)
	}
	if err != nil {
		if len(got) != len(prefix) {
			t.Fatalf("failed AppendJSON left %d bytes of a partial frame", len(got)-len(prefix))
		}
		return
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-40)
		t.Fatalf("AppendJSON differs from encoding/json at byte %d:\n got …%.120s\nwant …%.120s", i, got[lo:], want[lo:])
	}
}

// edgeFloats sit on both sides of every branch of json's float format.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 123.456, -2.5e-3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, // subnormal edge
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 9.5e-10, 1e-10, 1.5e-100,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22, 1e100, -1.7e300,
	1 << 53, 1<<53 + 2, -(1 << 53), 1 << 62, 1e15, 1e20, 123456789012345680000,
	math.MaxFloat64, -math.MaxFloat64, math.MaxFloat32, math.Pi, 1.0 / 3,
}

// floatSlots addresses every float64 a Snapshot with one clock, one
// step-phase row and one body carries.
func floatSlots(s *Snapshot) []*float64 {
	slots := []*float64{&s.Time, &s.Clocks[0]}
	for i := range s.Phases {
		slots = append(slots, &s.Phases[i], &s.StepPhases[0][i])
	}
	b := &s.Bodies[0]
	for _, v := range []*vec.V3{&b.Pos, &b.Vel, &b.Acc} {
		slots = append(slots, &v.X, &v.Y, &v.Z)
	}
	return append(slots, &b.Mass, &b.Cost, &b.Phi)
}

func fullSnapshot() *Snapshot {
	return &Snapshot{
		Step: 3, Steps: 8, Warmup: 1, Level: LevelMergedBuild, ExecMode: ModeNative, Threads: 1,
		Scenario: "plummer", Time: 0.075, Clocks: []float64{1.5},
		Phases:       PhaseTimes{1, 2, 3, 4, 5, 6},
		StepPhases:   []PhaseTimes{{0.5, 0.25, 0.125, 1e-7, 3e21, 0}},
		Interactions: math.MaxUint64,
		Bodies: []nbody.Body{{Pos: vec.V3{X: 1, Y: -2, Z: 3}, Mass: 0.5, Cost: 7, ID: 0,
			Vel: vec.V3{X: 1e-9, Y: 2e22, Z: -0.25}, Acc: vec.V3{X: 4, Y: 5, Z: 6}, Phi: -1.25}},
	}
}

func TestSnapshotAppendJSON(t *testing.T) {
	t.Run("shapes", func(t *testing.T) {
		for name, snap := range map[string]*Snapshot{
			"zero":       {},
			"full":       fullSnapshot(),
			"nil-slices": {Step: 1, Level: LevelSubspace, Scenario: "disk"},
			"empty-slices": {Clocks: []float64{}, StepPhases: []PhaseTimes{}, Bodies: []nbody.Body{},
				Scenario: "two-plummer", ExecMode: ModeSimulate},
			"negative-ints":  {Step: -1, Steps: math.MinInt64, Warmup: math.MaxInt64, Threads: -7},
			"odd-enums":      {Level: Level(42), ExecMode: ExecMode(-3)},
			"escaped-string": {Scenario: "a\"b\\c<d>&e\n\x01\u2028é\xff\x7f"},
			"two-bodies": {Bodies: []nbody.Body{{ID: math.MinInt32, Cost: 1}, {ID: math.MaxInt32, Mass: 2}},
				Clocks: []float64{1, 2, 3}, StepPhases: make([]PhaseTimes, 3)},
		} {
			t.Run(name, func(t *testing.T) { checkAppendJSON(t, snap) })
		}
	})
	t.Run("floats", func(t *testing.T) {
		for _, f := range edgeFloats {
			snap := fullSnapshot()
			for _, slot := range floatSlots(snap) {
				*slot = f
			}
			checkAppendJSON(t, snap)
		}
	})
	t.Run("non-finite", func(t *testing.T) {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for i := range floatSlots(fullSnapshot()) {
				snap := fullSnapshot()
				*floatSlots(snap)[i] = f
				if _, err := snap.AppendJSON(nil); err == nil {
					t.Fatalf("AppendJSON accepted %v in float slot %d", f, i)
				}
				checkAppendJSON(t, snap)
			}
		}
	})
	t.Run("live", func(t *testing.T) {
		opts := DefaultOptions(300, 3, LevelMergedBuild)
		opts.ExecMode = ModeNative
		sim, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Release()
		for step := 0; step <= opts.Steps; step++ {
			snap, err := sim.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			checkAppendJSON(t, snap)
			snap.Bodies = nil
			checkAppendJSON(t, snap)
			if step < opts.Steps {
				if err := sim.Step(1); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestStepPhaseTable: the cached step-phase rows leave AppendJSON's bytes
// equal to encoding/json's — at any step, after a caller edits the
// snapshot's rows, and on a restored Sim, whose table starts empty — and
// each step's snapshot and encoding format at most that step's row.
// Simulate mode, so the restored run's bytes must be the uninterrupted
// run's.
func TestStepPhaseTable(t *testing.T) {
	opts := DefaultOptions(64, 2, LevelMergedBuild)
	opts.Steps, opts.Warmup = 1000, 0
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	meta := func(sim *Sim) *Snapshot {
		t.Helper()
		snap, err := sim.SnapshotMeta()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	formatted := 0
	sim.stepTab.text.testFormatHook = func() { formatted++ }
	var ckpt bytes.Buffer
	for step := 0; step <= 1000; step++ {
		if step > 0 {
			if err := sim.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		before := formatted
		snap := meta(sim)
		if _, err := snap.AppendJSON(nil); err != nil {
			t.Fatal(err)
		}
		if n := formatted - before; n > 1 {
			t.Fatalf("step %d: the snapshot and its encoding formatted %d rows, want at most 1", step, n)
		}
		switch step {
		case 0, 1, 32, 1000:
			checkAppendJSON(t, snap)
		case 500:
			if err := sim.Checkpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
		}
	}
	final := meta(sim)

	t.Run("edited", func(t *testing.T) {
		last := len(final.StepPhases) - 1
		for name, edit := range map[string]func(s *Snapshot){
			"row0":          func(s *Snapshot) { s.StepPhases[0][PhaseForce] *= 2 },
			"last-row":      func(s *Snapshot) { s.StepPhases[last][PhaseTree] = 1e-9 },
			"negative-zero": func(s *Snapshot) { s.StepPhases[0][PhaseCofM] = math.Copysign(0, -1) },
			"nan":           func(s *Snapshot) { s.StepPhases[last][PhaseAdvance] = math.NaN() },
			"truncated":     func(s *Snapshot) { s.StepPhases = s.StepPhases[:7] },
			"appended":      func(s *Snapshot) { s.StepPhases = append(s.StepPhases, PhaseTimes{1, 2, 3, 4, 5, 6}) },
			"emptied":       func(s *Snapshot) { s.StepPhases = s.StepPhases[:0] },
			"nil":           func(s *Snapshot) { s.StepPhases = nil },
		} {
			t.Run(name, func(t *testing.T) {
				snap := meta(sim)
				edit(snap)
				checkAppendJSON(t, snap)
			})
		}
	})

	t.Run("restored", func(t *testing.T) {
		rs, err := Restore(bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Release()
		checkAppendJSON(t, meta(rs))
		if err := rs.Step(500); err != nil {
			t.Fatal(err)
		}
		got := meta(rs)
		checkAppendJSON(t, got)
		a, err := got.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := final.AppendJSON(nil); !bytes.Equal(a, b) {
			t.Fatalf("restored run's final snapshot encodes differently from the uninterrupted run's")
		}
	})
}

// TestStepPhaseTableConcurrentEncode: snapshots are encoded while later
// steps extend the table and while other snapshots of the same Sim are
// encoded — as bhserve encodes step responses and stream frames off the
// shard loop while the session steps on. Under -race, an unordered
// access to the shared rows or text is a report.
func TestStepPhaseTableConcurrentEncode(t *testing.T) {
	opts := DefaultOptions(64, 1, LevelMergedBuild)
	opts.ExecMode = ModeNative
	opts.Steps, opts.Warmup = 200, 0
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	snaps := make(chan *Snapshot, 8) // lagging encoders: the table grows under them
	var wg sync.WaitGroup
	defer func() {
		close(snaps)
		wg.Wait()
	}()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for snap := range snaps {
				want, _ := json.Marshal((*plainSnapshot)(snap))
				if got, err := snap.AppendJSON(nil); err != nil || !bytes.Equal(got, want) {
					t.Errorf("step %d: AppendJSON differs from encoding/json (err %v)", snap.Step, err)
				}
			}
		}()
	}
	for step := 0; step < opts.Steps; step++ {
		if err := sim.Step(1); err != nil {
			t.Fatal(err)
		}
		snap, err := sim.SnapshotMeta()
		if err != nil {
			t.Fatal(err)
		}
		snaps <- snap
	}
}

// FuzzSnapshotAppendJSON: AppendJSON == encoding/json over the
// method-less twin, byte for byte, for arbitrary field values — and error
// parity on NaN/±Inf. The float arguments are spread over every float
// position; shape selects nil/empty/filled slices and the body count.
func FuzzSnapshotAppendJSON(f *testing.F) {
	for i, x := range edgeFloats {
		f.Add(i, i%int(NumLevels), i%2, "plummer", uint64(i), uint8(i), x, -x, x*3)
	}
	f.Add(-5, 99, 7, "a<b>\"\\\x00\xff", uint64(math.MaxUint64), uint8(0), math.NaN(), 1.0, 2.0)
	f.Add(0, 0, 0, "", uint64(0), uint8(0xff), 1.0, math.Inf(1), 2.0)
	f.Add(0, 0, 0, "disk", uint64(1), uint8(0x35), 1.0, 2.0, math.Inf(-1))
	f.Fuzz(func(t *testing.T, n, level, mode int, scenario string, inter uint64, shape uint8, a, b, c float64) {
		snap := &Snapshot{
			Step: n, Steps: n + 1, Warmup: -n, Level: Level(level), ExecMode: ExecMode(mode), Threads: n >> 3,
			Scenario: scenario, Time: a, Phases: PhaseTimes{a, b, c, -a, -b, -c}, Interactions: inter,
		}
		switch shape & 3 {
		case 1:
			snap.Clocks = []float64{}
		case 2:
			snap.Clocks = []float64{b}
		case 3:
			snap.Clocks = []float64{c, a, b}
		}
		switch shape >> 2 & 3 {
		case 1:
			snap.StepPhases = []PhaseTimes{}
		case 2:
			snap.StepPhases = []PhaseTimes{{c, b, a, a * b, b * c, c * a}}
		case 3:
			snap.StepPhases = []PhaseTimes{{a}, {0, b}, {0, 0, c}}
		}
		if shape>>4&3 == 1 {
			snap.Bodies = []nbody.Body{}
		}
		for i := 0; i < int(shape>>4&3)-1; i++ {
			snap.Bodies = append(snap.Bodies, nbody.Body{
				Pos: vec.V3{X: a, Y: b, Z: c}, Mass: a + b, Cost: b - c, ID: int32(n + i),
				Vel: vec.V3{X: -c, Y: a / 3, Z: b * 1e-7}, Acc: vec.V3{X: c * 1e21, Y: a * b, Z: -b}, Phi: c / 7,
			})
		}
		checkAppendJSON(t, snap)
	})
}

// benchSnapshot is a native n-body session's snapshot after the given
// number of measured steps.
func benchSnapshot(b *testing.B, n, measured int, bodies bool) *Snapshot {
	opts := DefaultOptions(n, 1, LevelMergedBuild)
	opts.ExecMode = ModeNative
	opts.Steps, opts.Warmup = measured+1, 0
	sim, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Release()
	if err := sim.Step(measured); err != nil {
		b.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	if !bodies {
		snap.Bodies = nil
	}
	return snap
}

// BenchmarkSnapshotEncode is one stream frame's encoding, by reflection
// (json.Marshal over the method-less twin: what every subscriber paid per
// frame) and by the appender into a reused buffer (what the first
// subscriber to need a frame pays now).
func BenchmarkSnapshotEncode(b *testing.B) {
	for _, c := range []struct {
		name     string
		measured int
		bodies   bool
	}{{"bodies", 32, true}, {"meta-32", 32, false}, {"meta-192", 192, false}} {
		snap := benchSnapshot(b, 2048, c.measured, c.bodies)
		b.Run(fmt.Sprintf("reflect/%s", c.name), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := json.Marshal((*plainSnapshot)(snap)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("append/%s", c.name), func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for b.Loop() {
				var err error
				if buf, err = snap.AppendJSON(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStepResponse is the part of a bhserve step response that
// depends on the session's age: SnapshotMeta and AppendJSON of a 64-body
// native session after the given number of measured steps.
func BenchmarkStepResponse(b *testing.B) {
	for _, measured := range []int{32, 1024, 4000} {
		b.Run(fmt.Sprintf("step-%d", measured), func(b *testing.B) {
			opts := DefaultOptions(64, 1, LevelMergedBuild)
			opts.ExecMode = ModeNative
			opts.Steps, opts.Warmup = measured+1, 0
			sim, err := New(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Release()
			if err := sim.Step(measured); err != nil {
				b.Fatal(err)
			}
			var buf []byte
			b.ReportAllocs()
			for b.Loop() {
				snap, err := sim.SnapshotMeta()
				if err != nil {
					b.Fatal(err)
				}
				if buf, err = snap.AppendJSON(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
