package core

import (
	"encoding/json"
	"testing"

	"upcbh/internal/machine"
)

func TestOptionsKeyCanonicalizesDefaults(t *testing.T) {
	a := DefaultOptions(2048, 4, LevelSubspace)
	b := a
	// validate() fills these in; Key must treat zero and default alike.
	b.N1, b.N2, b.N3 = 0, 0, 0
	b.SubspaceAlpha = 0
	if a.Key() != b.Key() {
		t.Errorf("defaulted options key differs:\n%s\n%s", a.Key(), b.Key())
	}
}

func TestOptionsKeyDiscriminates(t *testing.T) {
	base := DefaultOptions(2048, 4, LevelSubspace)
	seen := map[string]string{base.Key(): "base"}
	mutations := map[string]func(*Options){
		"bodies":   func(o *Options) { o.Bodies = 4096 },
		"steps":    func(o *Options) { o.Steps = 6 },
		"warmup":   func(o *Options) { o.Warmup = 3 },
		"theta":    func(o *Options) { o.Theta = 0.5 },
		"seed":     func(o *Options) { o.Seed = 7 },
		"scenario": func(o *Options) { o.Scenario = "clustered" },
		"mode":     func(o *Options) { o.ExecMode = ModeNative },
		"level":    func(o *Options) { o.Level = LevelAsync },
		"vec":      func(o *Options) { o.VectorReduce = false },
		"n1":       func(o *Options) { o.N1 = 8 },
		"verify":   func(o *Options) { o.Verify = true },
		"tcache":   func(o *Options) { o.TransparentCache = true },
		"machine":  func(o *Options) { o.Machine = machine.MustNew(4, 4, true, machine.Power5()) },
		"parcost":  func(o *Options) { m := *o.Machine; m.Par.Latency *= 2; o.Machine = &m },
		"tbufcap":  func(o *Options) { o.testBufferCap = 64 },
	}
	for name, mut := range mutations {
		o := base
		mut(&o)
		k := o.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q: %s", name, prev, k)
		}
		seen[k] = name
	}
}

// TestOptionsJSONRoundTrip pins the serialization contract: Options
// (including the machine and its cost parameters, with Level/ExecMode as
// readable names) survives a marshal/unmarshal cycle.
func TestOptionsJSONRoundTrip(t *testing.T) {
	o := DefaultOptions(2048, 8, LevelAsync)
	o.ExecMode = ModeNative
	o.TransparentCache = true
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var got Options
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if got.Key() != o.Key() {
		t.Errorf("round-trip changed the options:\n got %s\nwant %s", got.Key(), o.Key())
	}
	if got.Level != LevelAsync || got.ExecMode != ModeNative {
		t.Errorf("level/mode lost: %v %v", got.Level, got.ExecMode)
	}
}
