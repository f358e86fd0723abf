package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"upcbh/internal/nbody"
)

// FuzzParseLevel: arbitrary input never panics; accepted names
// round-trip through String.
func FuzzParseLevel(f *testing.F) {
	for l := LevelBaseline; l < NumLevels; l++ {
		f.Add(l.String())
	}
	f.Add("")
	f.Add("Subspace")
	f.Add("subspace ")
	f.Fuzz(func(t *testing.T, s string) {
		l, err := ParseLevel(s)
		if err != nil {
			return
		}
		if l < 0 || l >= NumLevels {
			t.Fatalf("ParseLevel(%q) accepted out-of-range level %d", s, int(l))
		}
		if l.String() != s {
			t.Fatalf("ParseLevel(%q) = %v, which prints as %q", s, l, l.String())
		}
	})
}

// FuzzParseScenario: arbitrary input never panics; accepted names
// round-trip through Name, and the generator is usable.
func FuzzParseScenario(f *testing.F) {
	for _, name := range nbody.ScenarioNames() {
		f.Add(name)
	}
	f.Add("")
	f.Add("Plummer")
	f.Add("two_plummer")
	f.Fuzz(func(t *testing.T, s string) {
		scn, err := ParseScenario(s)
		if err != nil {
			return
		}
		if s != "" && scn.Name() != s {
			t.Fatalf("ParseScenario(%q).Name() = %q", s, scn.Name())
		}
		if s == "" && scn.Name() != nbody.DefaultScenario {
			t.Fatalf("ParseScenario(\"\") resolved to %q, want the default", scn.Name())
		}
	})
}

// fuzzOptions builds a canonical Options value from fuzzed raw inputs:
// enums are reduced into range, and validate() is required to either
// reject the value or leave behind something Key/JSON can serve.
func fuzzOptions(bodies, steps, warmup, threads int, theta, eps, dt, alpha float64,
	seed uint64, level, scn uint8, native, alias, vecRed, verify, tcache bool) (Options, bool) {
	// Non-finite floats marshal to a JSON error by design; they can
	// never reach a runnable Options value, so skip them here.
	for _, v := range []float64{theta, eps, dt, alpha} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Options{}, false
		}
	}
	if bodies < 0 {
		bodies = -(bodies + 1)
	}
	if threads < 0 {
		threads = -(threads + 1)
	}
	names := nbody.ScenarioNames()
	o := DefaultOptions(2+bodies%4096, 1+threads%16, Level(int(level)%int(NumLevels)))
	o.Steps, o.Warmup = steps, warmup
	o.Theta, o.Eps, o.Dt, o.Seed = theta, eps, dt, seed
	o.Scenario = names[int(scn)%len(names)]
	o.SubspaceAlpha = alpha
	if native {
		o.ExecMode = ModeNative
	}
	o.AliasLocalCells, o.VectorReduce, o.Verify, o.TransparentCache = alias, vecRed, verify, tcache
	if err := o.validate(); err != nil {
		return Options{}, false
	}
	return o, true
}

// FuzzOptionsJSONRoundTrip: every Options value that validates must
// survive marshal/unmarshal with an identical canonical Key and
// identical semantic fields.
func FuzzOptionsJSONRoundTrip(f *testing.F) {
	f.Add(2048, 4, 2, 8, 1.0, 0.05, 0.025, 2.0/3.0, uint64(123), uint8(6), uint8(0), false, false, true, false, false)
	f.Add(256, 2, 1, 4, 0.5, 0.01, 0.1, 0.5, uint64(7), uint8(3), uint8(3), true, true, false, true, true)
	f.Fuzz(func(t *testing.T, bodies, steps, warmup, threads int, theta, eps, dt, alpha float64,
		seed uint64, level, scn uint8, native, alias, vecRed, verify, tcache bool) {
		o, ok := fuzzOptions(bodies, steps, warmup, threads, theta, eps, dt, alpha,
			seed, level, scn, native, alias, vecRed, verify, tcache)
		if !ok {
			return
		}
		raw, err := json.Marshal(o)
		if err != nil {
			t.Fatalf("marshal %+v: %v", o, err)
		}
		var got Options
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if got.Key() != o.Key() {
			t.Fatalf("round-trip changed the canonical key:\n got %s\nwant %s\nvia %s", got.Key(), o.Key(), raw)
		}
		if got.Level != o.Level || got.ExecMode != o.ExecMode || got.Scenario != o.Scenario {
			t.Fatalf("round-trip lost fields: %+v vs %+v", got, o)
		}
	})
}

// FuzzOptionsKeyCollisionFree: two validated Options that differ in any
// semantic field must never share a Key — a collision would make the
// bench Runner silently serve one configuration's results as the
// other's. (The converse — canonically equal values sharing a key — is
// pinned by TestOptionsKeyCanonicalizesDefaults.)
func FuzzOptionsKeyCollisionFree(f *testing.F) {
	f.Add(2048, 4096, uint64(1), uint64(2), uint8(0), uint8(1), uint8(0), uint8(6), 1.0, 0.5, false, true)
	f.Fuzz(func(t *testing.T, bodiesA, bodiesB int, seedA, seedB uint64,
		scnA, scnB, levelA, levelB uint8, thetaA, thetaB float64, nativeA, nativeB bool) {
		a, okA := fuzzOptions(bodiesA, 4, 2, 8, thetaA, 0.05, 0.025, 2.0/3.0, seedA, levelA, scnA, nativeA, false, true, false, false)
		b, okB := fuzzOptions(bodiesB, 4, 2, 8, thetaB, 0.05, 0.025, 2.0/3.0, seedB, levelB, scnB, nativeB, false, true, false, false)
		if !okA || !okB {
			return
		}
		distinct := a.Bodies != b.Bodies || a.Seed != b.Seed || a.Scenario != b.Scenario ||
			a.Level != b.Level || a.Theta != b.Theta || a.ExecMode != b.ExecMode
		if distinct && a.Key() == b.Key() {
			t.Fatalf("distinct options collide on key %s:\n%+v\n%+v", a.Key(), a, b)
		}
		if !distinct && a.Key() != b.Key() {
			t.Fatalf("canonically equal options got different keys:\n%s\n%s", a.Key(), b.Key())
		}
	})
}

// FuzzRestore: Restore on arbitrary bytes either returns an error that
// is ErrBadCheckpoint or a Sim whose next Step(1) (when the schedule has
// one left) and Snapshot succeed — never a panic. Seeded with
// TestRestoreRejects' cases, the older-layout native fixture, crafted
// native bodies regions, fresh native containers at one and three
// threads, and a simulate one.
func FuzzRestore(f *testing.F) {
	capture := func(opts Options, k int) []byte {
		sim, err := New(opts)
		if err != nil {
			f.Fatal(err)
		}
		defer sim.Release()
		if err := sim.Step(k); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sim.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	sim := DefaultOptions(256, 2, LevelMergedBuild)
	sim.Steps, sim.Warmup = 2, 1
	simCkpt := capture(sim, 1)
	var seeds [][]byte
	for _, threads := range []int{1, 3} {
		o := DefaultOptions(256, threads, LevelMergedBuild)
		o.Steps, o.Warmup = 3, 1
		o.ExecMode = ModeNative
		seeds = append(seeds, capture(o, 1))
	}
	native := seeds[1]
	fixture, err := os.ReadFile(filepath.Join("testdata", "native-heaprefs.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, simCkpt, fixture,
		[]byte("not a checkpoint at all........."), nil,
		simCkpt[:len(simCkpt)-10],
		append(append([]byte(nil), simCkpt[:len(simCkpt)-1]...), simCkpt[len(simCkpt)-1]^0xff))
	for _, mut := range []func(cs *ckptState, r map[string][]byte){
		func(cs *ckptState, _ map[string][]byte) { cs.Options.Seed++ }, // key re-derived: a different run's state
		func(cs *ckptState, _ map[string][]byte) { cs.StepsDone++ },
		func(cs *ckptState, _ map[string][]byte) { cs.Threads[0].Cur = 7 },
		func(cs *ckptState, _ map[string][]byte) { cs.Threads[0].Buf[cs.Threads[0].Cur].Idx = 1 << 30 },
		func(cs *ckptState, _ map[string][]byte) { cs.Threads[1].Buf[cs.Threads[1].Cur].Thr = 0 },
		func(cs *ckptState, _ map[string][]byte) { cs.Threads[0].BufCap = 1 << 30 },
		func(cs *ckptState, _ map[string][]byte) { cs.Threads[0].CurLen = cs.Threads[0].BufCap + 1 },
		func(cs *ckptState, _ map[string][]byte) { cs.Threads[0].NOwned = 1 << 60 },
		func(cs *ckptState, _ map[string][]byte) { cs.Options.Machine.Threads = 0 },
		func(cs *ckptState, _ map[string][]byte) { cs.Options.Warmup = -1 },
		func(cs *ckptState, _ map[string][]byte) {
			cs.Options.ExecMode, cs.Options.Level = ModeNative, LevelRedistribute
		},
	} {
		seeds = append(seeds, resealed(f, simCkpt, mut))
	}
	for _, mut := range []func(cs *ckptState, r map[string][]byte){
		func(_ *ckptState, r map[string][]byte) { r[regBodies] = r[regBodies][:len(r[regBodies])-bodyBytes] },
		func(cs *ckptState, _ map[string][]byte) { cs.Threads[2].NOwned++ },
		func(_ *ckptState, r map[string][]byte) { copy(r[regBodies][bodyBytes:], r[regBodies][:bodyBytes]) },
		func(cs *ckptState, _ map[string][]byte) { cs.Options.ExecMode = ModeSimulate },
	} {
		seeds = append(seeds, resealed(f, native, mut))
	}
	seeds = append(seeds, resealed(f, fixture, func(_ *ckptState, r map[string][]byte) {
		binary.LittleEndian.PutUint32(r[regRefs][4:], 1<<30)
	}))
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Restore(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("Restore failed with %v, not ErrBadCheckpoint", err)
			}
			return
		}
		defer s.Release()
		if s.StepsDone() < s.Options().Steps {
			if err := s.Step(1); err != nil {
				t.Fatalf("restored Sim at step %d cannot step: %v", s.StepsDone(), err)
			}
		}
		if _, err := s.Snapshot(); err != nil {
			t.Fatalf("restored Sim cannot snapshot: %v", err)
		}
	})
}
