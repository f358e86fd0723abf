package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines waits, under a deadline, for the goroutine count to fall
// back to before: a member goroutine is gone a moment after it signals
// the region's join.
func waitGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%s: %d goroutines, %d before", what, n, before)
	}
}

// TestTeamStepGate: a setup region takes no step, a region of k steps
// runs exactly k on every member, and nothing runs between regions.
func TestTeamStepGate(t *testing.T) {
	const n = 4
	tm := newTeam(n)
	steps := make([][]int, n)
	granted := 0
	tm.run(func(m *member) { m.Barrier() })
	stepRegion := func(k int) {
		granted += k
		tm.run(func(m *member) {
			for range k {
				m.Barrier()
				steps[m.id] = append(steps[m.id], len(steps[m.id]))
			}
		})
	}
	for i := range steps {
		if len(steps[i]) != 0 {
			t.Fatalf("member %d ran %d steps before any region", i, len(steps[i]))
		}
	}
	stepRegion(2)
	for i := range steps {
		if len(steps[i]) != 2 {
			t.Fatalf("member %d ran %d steps after a 2-step region, want 2", i, len(steps[i]))
		}
	}
	stepRegion(3)
	for i := range steps {
		if got := len(steps[i]); got != 5 {
			t.Fatalf("member %d ran %d steps after 2+3, want 5", i, got)
		}
	}
	if granted != 5 {
		t.Fatalf("steps granted = %d, want 5", granted)
	}
}

// TestTeamPanicPropagates: a member's panic is re-raised on the caller
// with its message, and every member goroutine has unwound.
func TestTeamPanicPropagates(t *testing.T) {
	before := runtime.NumGoroutine()
	tm := newTeam(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("run did not propagate the member panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "session boom") {
			t.Fatalf("propagated panic lost the original message: %v", r)
		}
		waitGoroutines(t, before, "after the failed region")
	}()
	tm.run(func(m *member) {
		m.Barrier()
		if m.id == 2 {
			panic("session boom")
		}
		m.Barrier()
	})
	t.Fatal("run returned despite a panicking member")
}

// TestTeamPanicLateArriver: a member that reaches a barrier strictly
// AFTER a peer has poisoned the team must abort without holding the
// barrier mutex, or the join waits for it forever. One member is already
// parked in the barrier, one panics, one arrives late.
func TestTeamPanicLateArriver(t *testing.T) {
	tm := newTeam(3)
	raised := make(chan any, 1)
	go func() {
		defer func() { raised <- recover() }()
		tm.run(func(m *member) {
			switch m.id {
			case 1:
				panic("late boom")
			case 2:
				for tm.poisoned.Load() == nil {
					runtime.Gosched()
				}
			}
			m.Barrier()
		})
	}()
	select {
	case r := <-raised:
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "late boom") {
			t.Fatalf("run raised %v, want the member's panic", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run hangs: a member arriving at the barrier after the poison never aborted")
	}
}

// TestTeamPoisonedRunsNoRegion: after a failed region the team refuses
// the next one without running any member.
func TestTeamPoisonedRunsNoRegion(t *testing.T) {
	tm := newTeam(2)
	raise := func(body func(m *member)) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		tm.run(body)
		return
	}
	if msg := raise(func(m *member) { panic("original failure") }); !strings.Contains(msg, "original failure") {
		t.Fatalf("first region raised %q", msg)
	}
	ran := false
	if msg := raise(func(m *member) { ran = true }); msg != poisonSecondary {
		t.Fatalf("region on a poisoned team raised %q, want %q", msg, poisonSecondary)
	}
	if ran {
		t.Fatal("a member ran on a poisoned team")
	}
}

// TestTeamLostWakeupStress: thousands of one-step regions, each step
// ending at a barrier. A wake-up lost between a member's arrival and its
// park hangs the region (at -cpu 1 most readily); a miscounted join
// returns before every member has stepped.
func TestTeamLostWakeupStress(t *testing.T) {
	const n, rounds = 4, 2000
	tm := newTeam(n)
	var counts [n]int64
	step := func(m *member) {
		counts[m.id]++
		m.Barrier()
	}
	for r := 1; r <= rounds; r++ {
		tm.run(step)
		for i, c := range counts {
			if c != int64(r) {
				t.Fatalf("after region %d: member %d at %d steps", r, i, c)
			}
		}
	}
}

// TestTeamManyThreadsStress drives a 64-member team through many tiny
// regions of 1 to 3 steps; catches drift in the barrier count and the
// join.
func TestTeamManyThreadsStress(t *testing.T) {
	const n, rounds = 64, 20
	tm := newTeam(n)
	var counts [n]int64
	tm.run(func(m *member) { m.Barrier() })
	want := int64(0)
	for r := 0; r < rounds; r++ {
		k := r%3 + 1
		tm.run(func(m *member) {
			for range k {
				m.Barrier()
				counts[m.id]++
			}
		})
		want += int64(k)
		if counts[n-1] != want {
			t.Fatalf("round %d: member %d at %d steps, want %d", r, n-1, counts[n-1], want)
		}
	}
	for i, c := range counts {
		if c != want {
			t.Fatalf("member %d ran %d steps, want %d", i, c, want)
		}
	}
}

// TestTeamBarrierCountsRace: every member counts its own barriers (no
// shared counter), and the sum is exact under -race with real
// parallelism.
func TestTeamBarrierCountsRace(t *testing.T) {
	const n, rounds = 8, 400
	tm := newTeam(n)
	tm.run(func(m *member) {
		for range rounds {
			m.Barrier()
		}
	})
	if st := tm.totalStats(); st.Barriers != n*rounds {
		t.Fatalf("barriers = %d, want %d (lost updates => counters are shared)", st.Barriers, n*rounds)
	}
}

// TestTeamNowMonotonic: the wall clock is non-decreasing within a member
// and non-negative.
func TestTeamNowMonotonic(t *testing.T) {
	tm := newTeam(4)
	tm.run(func(m *member) {
		t0 := m.Now()
		acc := 0.0
		for i := 0; i < 100000; i++ {
			acc += float64(i)
		}
		_ = acc
		t1 := m.Now()
		if t1 < t0 {
			t.Errorf("member %d: Now went backwards: %g -> %g", m.id, t0, t1)
		}
		if t1 < 0 {
			t.Errorf("member %d: negative wall time %g", m.id, t1)
		}
	})
}

// TestPausedNativeSimHoldsNoGoroutine: a native Sim paused at a step
// boundary holds no goroutine — its team ran the step as one fork-join
// region — and neither does it after Release.
func TestPausedNativeSimHoldsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	opts := DefaultOptions(512, 4, LevelMergedBuild)
	opts.ExecMode = ModeNative
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(1); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before, "paused native Sim")
	sim.Release()
	waitGoroutines(t, before, "released native Sim")
}

// BenchmarkTeamRegion is one fork-join region with an empty body: the
// native engine's fixed cost per Step(k). At T = 1 the region runs
// inline on the caller.
func BenchmarkTeamRegion(b *testing.B) {
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("T=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			tm := newTeam(p)
			body := func(*member) {}
			for b.Loop() {
				tm.run(body)
			}
		})
	}
}

// BenchmarkTeamBarrier is one barrier of a two-member team, inside one
// region.
func BenchmarkTeamBarrier(b *testing.B) {
	b.ReportAllocs()
	tm := newTeam(2)
	b.ResetTimer()
	tm.run(func(m *member) {
		for range b.N {
			m.Barrier()
		}
	})
}
