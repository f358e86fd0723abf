package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"upcbh/internal/machine"
)

// planeShapes are the machine shapes the force-plane tests run at: the
// default one thread per node, and four threads per node.
var planeShapes = []int{1, 4}

func planeOptions(level Level, perNode, steps int) Options {
	opts := DefaultOptions(256, 16, level)
	opts.Machine = machine.MustNew(16, perNode, false, machine.Power5())
	opts.Steps, opts.Warmup, opts.Seed = steps, 1, 1
	return opts
}

// TestSimulateHostWorkersInvariant: the Result JSON and the bodies of the
// cached levels are byte-equal whether the force plane runs on one, two
// or four host goroutines.
func TestSimulateHostWorkersInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, level := range []Level{LevelCacheTree, LevelAsync, LevelSubspace} {
		for _, pn := range planeShapes {
			var first []byte
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				sim, err := New(planeOptions(level, pn, 3))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run()
				sim.Release()
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = got
				} else if !bytes.Equal(first, got) {
					t.Errorf("%s/%dpn: the Result at %d host workers differs from one worker's", level, pn, procs)
				}
			}
		}
	}
}

// TestSimulateStepLeavesNoGoroutine: a paused Sim holds the same
// goroutines before and after more steps; no force-plane worker
// outlives its phase.
func TestSimulateStepLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	for _, level := range []Level{LevelCacheTree, LevelAsync, LevelSubspace} {
		for _, pn := range planeShapes {
			sim, err := New(planeOptions(level, pn, 4))
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Step(1); err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			if err := sim.Step(3); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, before, fmt.Sprintf("%s/%dpn after Step(3)", level, pn))
			if n := runtime.NumGoroutine(); n != before {
				t.Errorf("%s/%dpn: %d goroutines after Step(3), %d before", level, pn, n, before)
			}
			sim.Release()
		}
	}
}

// TestForceWorkerPanicPoisons: a panic in a force walk on the plane fails
// the step as a thread panic does, naming it, and leaves no goroutine
// behind. The walk is broken through its walkers' pooled working bodies,
// which every walker pops.
func TestForceWorkerPanicPoisons(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	for _, pn := range planeShapes {
		before := runtime.NumGoroutine()
		sim, err := New(planeOptions(LevelAsync, pn, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Step(1); err != nil {
			t.Fatal(err)
		}
		for _, pt := range sim.eng.(*simEngine).plane.walkers {
			pt.wbFree = append(pt.wbFree, nil)
		}
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			sim.Step(1)
			return ""
		}()
		if !strings.Contains(msg, "panicked") {
			t.Errorf("%dpn: Step after a broken walk raised %q, want a thread panic", pn, msg)
		}
		sim.Release()
		waitGoroutines(t, before, fmt.Sprintf("%dpn after the failed step", pn))
	}
}
