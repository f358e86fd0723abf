package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"upcbh/internal/machine"
)

// §5.5: "results are not very sensitive to that choice, and performance
// is good even with n1 = n2 = n3 = 1."
func TestAsyncParamInsensitivity(t *testing.T) {
	run := func(n1, n2, n3 int) float64 {
		opts := DefaultOptions(4096, 8, LevelAsync)
		opts.Steps, opts.Warmup = 2, 1
		opts.N1, opts.N2, opts.N3 = n1, n2, n3
		sim, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Phases[PhaseForce]
	}
	base := run(4, 4, 4)
	for _, cfg := range [][3]int{{1, 1, 1}, {8, 8, 8}, {16, 2, 8}, {2, 16, 1}} {
		got := run(cfg[0], cfg[1], cfg[2])
		t.Logf("n1=%d n2=%d n3=%d: force=%.4fs (base %.4fs)", cfg[0], cfg[1], cfg[2], got, base)
		if got > base*3 || got < base/3 {
			t.Errorf("n=%v force time %.4f deviates wildly from base %.4f", cfg, got, base)
		}
	}
}

// The async framework must produce the same physics as the blocking
// cached walk (same cells, different schedule).
func TestAsyncMatchesBlockingForces(t *testing.T) {
	run := func(level Level) *Result {
		opts := DefaultOptions(2048, 8, level)
		opts.Steps, opts.Warmup = 2, 1
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
	blocking := run(LevelMergedBuild)
	async := run(LevelAsync)
	for i := range blocking.Bodies {
		d := blocking.Bodies[i].Pos.Sub(async.Bodies[i].Pos).Len()
		if d > 1e-9 {
			t.Fatalf("body %d diverged by %g between blocking and async force", i, d)
		}
	}
	if async.Interactions != blocking.Interactions {
		t.Errorf("interaction counts differ: async %d vs blocking %d",
			async.Interactions, blocking.Interactions)
	}
}

// Options validation failure injection.
func TestOptionsValidation(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Bodies = 1 },
		func(o *Options) { o.Machine = nil },
		func(o *Options) { o.Steps = 1; o.Warmup = 1 },
		func(o *Options) { o.Level = NumLevels },
		func(o *Options) { o.Theta = 0 },
		// These three used to pass validate() and panic later (divide by
		// zero in New / at the first barrier, a bogus step count at Finish).
		func(o *Options) { o.Machine.Threads = 0 },
		func(o *Options) { o.Machine.ThreadsPerNode = -1 },
		func(o *Options) { o.Warmup = -3 },
	}
	for i, mut := range bad {
		opts := DefaultOptions(256, 2, LevelSubspace)
		mut(&opts)
		if _, err := New(opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("bad options %d: New returned %v, want ErrInvalidOptions", i, err)
		}
	}
	// The mode x level grid: simulate runs every level, native starts at
	// LevelCacheTree and says so.
	for _, mode := range []ExecMode{ModeSimulate, ModeNative} {
		for level := LevelBaseline; level < NumLevels; level++ {
			opts := DefaultOptions(256, 2, level)
			opts.ExecMode = mode
			sim, err := New(opts)
			if mode == ModeNative && level < LevelCacheTree {
				if !errors.Is(err, ErrInvalidOptions) || !strings.Contains(err.Error(), "starts at level cache") {
					t.Errorf("%v x %v: New returned %v, want ErrInvalidOptions naming cache as the floor", mode, level, err)
				}
			} else if err != nil {
				t.Errorf("%v x %v: %v", mode, level, err)
			}
			if sim != nil {
				sim.Release()
			}
		}
	}
}

func TestParseLevel(t *testing.T) {
	for level := LevelBaseline; level < NumLevels; level++ {
		got, err := ParseLevel(level.String())
		if err != nil || got != level {
			t.Errorf("round trip failed for %v", level)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Error("bogus level accepted")
	}
}

// TestForcePhaseLeavesTreeFrozen runs the two levels whose gathers read
// at sync (async, subspace) at 16 threads under Options.Verify, on the
// default machine shape and on four threads per node: thread 0 hashes
// every cell and every body's Pos/Mass at the tree barrier and again
// after the force barrier, and a difference panics. It also checks that
// the hash sees what the local tree and the gathers read and nothing the
// force phase writes.
func TestForcePhaseLeavesTreeFrozen(t *testing.T) {
	for _, level := range []Level{LevelAsync, LevelSubspace} {
		for _, perNode := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/pernode=%d", level, perNode), func(t *testing.T) {
				opts := DefaultOptions(2048, 16, level)
				opts.Seed = 1
				opts.Steps, opts.Warmup = 3, 1
				opts.Verify = true
				if perNode > 0 {
					opts.Machine = machine.MustNew(16, perNode, false, machine.Power5())
				}
				sim, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Release()
				if err := sim.Step(2); err != nil {
					t.Fatal(err)
				}
				s := sim.eng.(*simEngine)
				h0 := s.frozenHash()
				c := s.cells.Raw(s.ts[1].myCells[0])
				b := s.bodies.Raw(s.ts[3].myBodies[0])
				b.Acc.X, b.Phi, b.Cost = b.Acc.X+1, b.Phi+1, b.Cost+1
				if s.frozenHash() != h0 {
					t.Error("the hash reads a body's force results")
				}
				for _, mut := range []func(){
					func() { b.Pos.Y = math.Nextafter(b.Pos.Y, 2) },
					func() { b.Mass *= 2 },
					func() { c.Sub[7] ^= 1 },
					func() { c.CofM.Z = math.Nextafter(c.CofM.Z, 2) },
				} {
					mut()
					h := s.frozenHash()
					if h == h0 {
						t.Error("a changed cell or body position/mass left the hash unchanged")
					}
					h0 = h
				}
			})
		}
	}
}
