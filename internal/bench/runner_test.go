package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcbh/internal/core"
	"upcbh/internal/nbody"
)

// stubExec installs a fast fake execution path that fabricates a Result
// from the options and counts real executions per key.
func stubExec(r *Runner) *atomic.Int64 {
	var execs atomic.Int64
	r.exec = func(o core.Options) (*core.Result, error) {
		execs.Add(1)
		res := &core.Result{Level: o.Level, Threads: o.Machine.Threads, ExecMode: o.ExecMode}
		// Nonzero, option-dependent phases so figure math (speedups) works.
		res.Phases[core.PhaseForce] = float64(o.Bodies) / float64(o.Machine.Threads)
		res.Phases[core.PhaseTree] = 0.01
		res.PerThread = make([]core.ThreadBreakdown, o.Machine.Threads)
		return res, nil
	}
	return &execs
}

// TestRunnerDedupsAcrossExperiments is the core cache property: configs
// shared between experiments (the strong-scaling tables and the speedup
// figures overlap heavily) simulate exactly once per unique key.
func TestRunnerDedupsAcrossExperiments(t *testing.T) {
	r := NewRunner(4)
	execs := stubExec(r)
	p := DefaultParams()

	// table2..table8 all sweep the same (bodies, threads) grid at one
	// level each; fig5 sweeps every level over the same grid and fig6
	// repeats the max-thread column. Everything fig5/fig6 needs is
	// already cached by the tables.
	ids := []string{"table2", "table3", "table4", "table5", "table6", "table7", "table8", "fig5", "fig6"}
	uniq := map[string]bool{}
	requests := 0
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(r, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.Configs {
			uniq[c.Key] = true
			requests++
		}
	}
	s := r.Stats()
	if got := int(execs.Load()); got != len(uniq) {
		t.Errorf("executed %d simulations for %d unique configs", got, len(uniq))
	}
	if s.Runs != len(uniq) {
		t.Errorf("stats.Runs = %d, want %d unique configs", s.Runs, len(uniq))
	}
	if s.Hits != requests-len(uniq) {
		t.Errorf("stats.Hits = %d, want %d", s.Hits, requests-len(uniq))
	}
	// fig5 and fig6 alone re-request every tabled config: dedup must be
	// substantial, not incidental.
	if s.DedupFraction() < 0.3 {
		t.Errorf("dedup fraction %.2f below 0.3 (%d runs, %d hits)", s.DedupFraction(), s.Runs, s.Hits)
	}
}

// TestRunnerCoalescesInFlight: concurrent requests for the same key must
// share one execution, not race to run it twice.
func TestRunnerCoalescesInFlight(t *testing.T) {
	r := NewRunner(8)
	execs := stubExec(r)
	inner := r.exec
	r.exec = func(o core.Options) (*core.Result, error) {
		time.Sleep(10 * time.Millisecond) // hold the entry in flight
		return inner(o)
	}
	opts := make([]core.Options, 16)
	for i := range opts {
		opts[i] = core.DefaultOptions(2048, 2, core.LevelAsync) // identical key
	}
	results, hits, err := r.RunAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 1 {
		t.Errorf("%d executions for 16 identical requests", got)
	}
	misses := 0
	for i, h := range hits {
		if !h {
			misses++
		}
		if results[i] != results[0] {
			t.Errorf("request %d got a different result object", i)
		}
	}
	if misses != 1 {
		t.Errorf("%d cache misses, want exactly 1", misses)
	}
}

// TestRunnerCountsNativeRuns: RunnerStats.NativeRuns (GET /stats
// .runner.native_runs) counts the executed ModeNative configurations; a
// native run takes one pool slot like any other.
func TestRunnerCountsNativeRuns(t *testing.T) {
	r := NewRunner(8)
	stubExec(r)
	var opts []core.Options
	for n := 0; n < 24; n++ {
		o := core.DefaultOptions(256+n, 2, core.LevelAsync) // unique keys
		if n%4 == 0 {
			o.ExecMode = core.ModeNative
		}
		opts = append(opts, o, o)
	}
	if _, _, err := r.RunAll(opts); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Runs != 24 || s.NativeRuns != 6 {
		t.Errorf("Runs = %d, NativeRuns = %d, want 24 and 6", s.Runs, s.NativeRuns)
	}
}

// TestParallelMatchesSerial: parallel harness execution must not change
// simulate-mode results. Single-UPC-thread simulations are bit-exact
// deterministic (no lock or NIC races — the property the 1-thread
// goldens rely on), so their rendered tables must be byte-identical
// between a 1-worker and a many-worker Runner.
func TestParallelMatchesSerial(t *testing.T) {
	render := func(workers int) string {
		r := NewRunner(workers)
		x := &Exec{R: r, P: Params{Scale: 1}}
		var opts []core.Options
		for level := core.LevelBaseline; level < core.NumLevels; level++ {
			o := core.DefaultOptions(512, 1, level)
			o.Steps, o.Warmup = 2, 1
			opts = append(opts, o)
		}
		results, err := x.runAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i, res := range results {
			pt := PhaseTable{Title: core.Level(i).String(), Threads: []int{1}, Results: []*core.Result{res}}
			b.WriteString(pt.Format())
			fmt.Fprintf(&b, "%v\n", res.Phases)
		}
		return b.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("parallel tables differ from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestParallelMatchesSerial112 extends the parallel-vs-serial pin to
// multi-thread configurations: under the cooperative virtual-time
// scheduler EVERY simulate run is bit-exact deterministic (the old
// goroutine backend only guaranteed this at one UPC thread), so a
// 112-thread table must also be byte-identical between a 1-worker and a
// many-worker Runner — the `-parallel` flag must never change output.
func TestParallelMatchesSerial112(t *testing.T) {
	render := func(workers int) string {
		r := NewRunner(workers)
		x := &Exec{R: r, P: Params{Scale: 1}}
		var opts []core.Options
		for _, scen := range []string{"plummer", "clustered"} {
			for _, level := range []core.Level{core.LevelBaseline, core.LevelSubspace} {
				o := core.DefaultOptions(768, 112, level)
				o.Scenario = scen
				o.Steps, o.Warmup = 2, 1
				opts = append(opts, o)
			}
		}
		results, err := x.runAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i, res := range results {
			pt := PhaseTable{Title: opts[i].Key(), Threads: []int{112}, Results: []*core.Result{res}}
			b.WriteString(pt.Format())
			fmt.Fprintf(&b, "%v\n", res.Phases)
		}
		return b.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("112-thread parallel tables differ from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestReportJSONRoundTrip: the -json serialization contract. A report
// marshals, unmarshals, and preserves identification, config keys, and
// phase times exactly (float64s survive via Go's shortest-round-trip
// encoding).
func TestReportJSONRoundTrip(t *testing.T) {
	e, err := ByID("table4")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0)
	rep, err := e.Run(r, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.ID != rep.ID || got.Title != rep.Title || got.Text != rep.Text {
		t.Errorf("identification lost in round trip")
	}
	if len(got.Configs) != len(rep.Configs) {
		t.Fatalf("configs: %d != %d", len(got.Configs), len(rep.Configs))
	}
	for i := range got.Configs {
		if got.Configs[i].Key != rep.Configs[i].Key {
			t.Errorf("config %d key changed", i)
		}
		if got.Configs[i].Options.Key() != rep.Configs[i].Key {
			t.Errorf("config %d options no longer reproduce their key", i)
		}
		if got.Configs[i].Phases != rep.Configs[i].Phases {
			t.Errorf("config %d phases drifted: %v != %v", i, got.Configs[i].Phases, rep.Configs[i].Phases)
		}
	}

	// And the whole trajectory document round-trips too.
	traj := &Trajectory{Params: rep.Params, Runner: r.Stats(), Reports: []*Report{rep}}
	raw, err = traj.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var gt Trajectory
	if err := json.Unmarshal(raw, &gt); err != nil {
		t.Fatalf("trajectory unmarshal: %v", err)
	}
	if gt.Runner != traj.Runner || len(gt.Reports) != 1 || gt.Reports[0].ID != rep.ID {
		t.Errorf("trajectory round trip lost data")
	}
}

// TestRunnerKeepBodies: by default the body state is dropped before a
// result enters the cache; with KeepBodies the verification harness
// gets the physics back.
func TestRunnerKeepBodies(t *testing.T) {
	mkRunner := func(keep bool) *Runner {
		r := NewRunner(2)
		r.KeepBodies = keep
		r.exec = func(o core.Options) (*core.Result, error) {
			res := &core.Result{Level: o.Level}
			res.Bodies = make([]nbody.Body, o.Bodies)
			return res, nil
		}
		return r
	}
	opts := core.DefaultOptions(256, 2, core.LevelSubspace)

	res, _, err := mkRunner(false).Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bodies != nil {
		t.Errorf("default runner kept %d bodies; cache should drop them", len(res.Bodies))
	}

	res, _, err = mkRunner(true).Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bodies) != opts.Bodies {
		t.Errorf("KeepBodies runner returned %d bodies, want %d", len(res.Bodies), opts.Bodies)
	}
}

// TestRunnerEvictsErrorEntry: the cache-poisoning regression. A config
// whose execution fails transiently must not have the failure memoized —
// the next request for the same key re-executes and can succeed.
func TestRunnerEvictsErrorEntry(t *testing.T) {
	r := NewRunner(2)
	var execs atomic.Int64
	r.exec = func(o core.Options) (*core.Result, error) {
		if execs.Add(1) == 1 {
			return nil, errors.New("transient native failure")
		}
		return &core.Result{Level: o.Level, Threads: o.Machine.Threads}, nil
	}
	opts := core.DefaultOptions(512, 2, core.LevelAsync)

	if _, _, err := r.Run(opts); err == nil {
		t.Fatal("first run should have failed")
	}
	res, hit, err := r.Run(opts)
	if err != nil {
		t.Fatalf("retry after transient failure still errors: %v", err)
	}
	if hit {
		t.Fatal("retry was served from the cache — the error entry was not evicted")
	}
	if res == nil {
		t.Fatal("retry returned no result")
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("executed %d times, want 2 (fail, then retry)", got)
	}
	// And success memoization is intact: a third request hits.
	if _, hit, err := r.Run(opts); err != nil || !hit {
		t.Fatalf("third request: hit=%v err=%v, want a cache hit", hit, err)
	}
	s := r.Stats()
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions)
	}
	if s.Runs != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 2 runs / 1 hit", s)
	}
}

// TestRunnerErrorCoalescedWaiters: requests coalesced onto an in-flight
// execution that fails must all observe the failure (the entry is only
// evicted after done closes); requests arriving after the eviction
// re-execute.
func TestRunnerErrorCoalescedWaiters(t *testing.T) {
	r := NewRunner(8)
	var execs atomic.Int64
	release := make(chan struct{})
	r.exec = func(o core.Options) (*core.Result, error) {
		if execs.Add(1) == 1 {
			<-release // hold the failing run in flight while waiters pile up
			return nil, errors.New("boom")
		}
		return &core.Result{Level: o.Level}, nil
	}
	opts := core.DefaultOptions(1024, 2, core.LevelAsync)

	const waiters = 8
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, _, err := r.Run(opts)
			errs <- err
		}()
	}
	// Wait until every request has either started the execution or
	// coalesced onto it, then let the failure land.
	for r.Stats().Hits < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < waiters; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a coalesced waiter missed the in-flight error")
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions while failing, want 1", got)
	}
	// The failure must not have stuck: the key re-executes and succeeds.
	if _, hit, err := r.Run(opts); err != nil || hit {
		t.Fatalf("post-eviction request: hit=%v err=%v, want a fresh successful run", hit, err)
	}
}

// TestRunnerLookupAndMemoize: the serve-layer cache seam. Lookup peeks
// without blocking or executing; Memoize lands an externally produced
// result, dropping bodies per KeepBodies, and never clobbers an
// existing entry.
func TestRunnerLookupAndMemoize(t *testing.T) {
	r := NewRunner(2)
	execs := stubExec(r)
	opts := core.DefaultOptions(2048, 2, core.LevelSubspace)

	if _, ok := r.Lookup(opts); ok {
		t.Fatal("Lookup hit an empty cache")
	}
	ext := &core.Result{Level: opts.Level, Threads: 2}
	ext.Bodies = make([]nbody.Body, opts.Bodies)
	if !r.Memoize(opts, ext) {
		t.Fatal("Memoize refused an empty slot")
	}
	got, ok := r.Lookup(opts)
	if !ok {
		t.Fatal("Lookup missed a memoized entry")
	}
	if got.Bodies != nil {
		t.Error("memoized copy kept bodies despite KeepBodies=false")
	}
	if ext.Bodies == nil {
		t.Error("Memoize stripped the caller's bodies; only the cached copy should drop them")
	}
	if r.Memoize(opts, &core.Result{}) {
		t.Fatal("Memoize overwrote an existing entry")
	}
	if again, ok := r.Lookup(opts); !ok || again != got {
		t.Fatal("second Lookup did not return the original entry")
	}
	// Run is served from the memoized entry without executing.
	if _, hit, err := r.Run(opts); err != nil || !hit {
		t.Fatalf("Run after Memoize: hit=%v err=%v", hit, err)
	}
	if execs.Load() != 0 {
		t.Fatalf("Run executed despite a memoized result")
	}
	if s := r.Stats(); s.Hits != 3 { // two Lookups + one Run
		t.Errorf("Hits = %d, want 3", s.Hits)
	}

	// An in-flight entry is a Lookup miss, not a block.
	slow := core.DefaultOptions(4096, 2, core.LevelAsync)
	started, unblock := make(chan struct{}), make(chan struct{})
	r.exec = func(o core.Options) (*core.Result, error) {
		close(started)
		<-unblock
		return &core.Result{}, nil
	}
	go r.Run(slow) //nolint:errcheck
	<-started
	if _, ok := r.Lookup(slow); ok {
		t.Error("Lookup returned an in-flight entry")
	}
	close(unblock)
}

// TestMemoizeOutcomeStats pins the cache-provenance accounting: every
// Memoize outcome is visible in RunnerStats, so a cache that silently
// dropped an externally produced result can no longer hide. Concurrent
// Memoize calls for one key land exactly one entry and drop the rest.
func TestMemoizeOutcomeStats(t *testing.T) {
	r := NewRunner(4)
	opts := core.DefaultOptions(2048, 2, core.LevelCacheTree)

	const callers = 16
	var wg sync.WaitGroup
	var landed atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.Memoize(opts, &core.Result{Level: opts.Level, Threads: 2}) {
				landed.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := landed.Load(); got != 1 {
		t.Fatalf("%d Memoize calls landed, want exactly 1", got)
	}
	s := r.Stats()
	if s.Memoized != 1 || s.MemoizeDropped != callers-1 {
		t.Fatalf("stats Memoized=%d MemoizeDropped=%d, want 1 and %d", s.Memoized, s.MemoizeDropped, callers-1)
	}
	if _, ok := r.Lookup(opts); !ok {
		t.Fatal("no entry survived the concurrent Memoize storm")
	}

	// Every later outcome lands in the same two counters: a feed for the
	// key that is already cached is dropped (the entry is left untouched),
	// one for a fresh key lands, and Run then hits it without executing.
	if r.Memoize(opts, &core.Result{Level: opts.Level, Threads: 2}) {
		t.Fatal("Memoize overwrote the cached entry")
	}
	fresh := core.DefaultOptions(256, 2, core.LevelMergedBuild)
	if !r.Memoize(fresh, &core.Result{Level: fresh.Level, Threads: 2}) {
		t.Fatal("Memoize refused a fresh key")
	}
	s = r.Stats()
	if s.Memoized != 2 || s.MemoizeDropped != callers {
		t.Fatalf("after one dropped and one landed feed: Memoized=%d MemoizeDropped=%d, want 2 and %d",
			s.Memoized, s.MemoizeDropped, callers)
	}
	execs := stubExec(r)
	if _, hit, err := r.Run(fresh); err != nil || !hit || execs.Load() != 0 {
		t.Fatalf("Run after Memoize: hit=%v err=%v execs=%d, want a cache hit and no execution", hit, err, execs.Load())
	}
}

// TestRunnerCacheBudget pins the byte budget's rules: completed results
// leave least recently used first, a hit from Run or Lookup counts as a
// use, an in-flight entry is never evicted, a result over the whole
// budget is not stored, error eviction is unchanged, and the resident
// cost never exceeds cacheBudget.
func TestRunnerCacheBudget(t *testing.T) {
	r := NewRunner(4)
	var execs atomic.Int64
	gate := make(chan struct{}) // holds a run with Seed 1 in flight
	r.exec = func(o core.Options) (*core.Result, error) {
		execs.Add(1)
		switch o.Seed {
		case 1:
			<-gate
		case 2:
			return nil, errors.New("transient")
		}
		// Steps sets the result's size: one PhaseTimes per step.
		return &core.Result{Level: o.Level, StepPhases: make([]core.PhaseTimes, o.Steps)}, nil
	}
	quarter := (cacheBudget/4 - 4096) / 48 // steps for a result just under a quarter of the budget
	cfg := func(n, steps int) core.Options {
		o := core.DefaultOptions(n, 2, core.LevelAsync)
		o.Steps, o.Warmup = steps, 0
		return o
	}
	check := func(when string) RunnerStats {
		t.Helper()
		s := r.Stats()
		if s.CachedBytes > cacheBudget {
			t.Fatalf("%s: %d cached bytes over the %d-byte budget", when, s.CachedBytes, cacheBudget)
		}
		return s
	}
	run := func(o core.Options) (*core.Result, bool) {
		t.Helper()
		res, hit, err := r.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		check("after Run")
		return res, hit
	}
	cached := func(o core.Options) bool {
		t.Helper()
		_, ok := r.Lookup(o)
		return ok
	}

	a, b, c, d, e, f := cfg(100, quarter), cfg(101, quarter), cfg(102, quarter), cfg(103, quarter), cfg(104, quarter), cfg(105, quarter)
	for _, o := range []core.Options{a, b, c, d} {
		run(o)
	}
	if s := check("four quarters"); s.CachedEntries != 4 || s.CapacityEvictions != 0 {
		t.Fatalf("four sub-quarter results: %d entries, %d capacity evictions; want 4 and 0", s.CachedEntries, s.CapacityEvictions)
	}
	// Use a (by Run) and b (by Lookup): c becomes the least recently used.
	if _, hit := run(a); !hit {
		t.Fatal("Run of a cached key missed")
	}
	if !cached(b) {
		t.Fatal("Lookup of a cached key missed")
	}
	run(e)
	if cached(c) {
		t.Fatal("c, the least recently used, survived the fifth result")
	}
	run(f)
	if cached(d) {
		t.Fatal("d, now the least recently used, survived the sixth result")
	}
	for name, o := range map[string]core.Options{"a": a, "b": b, "e": e, "f": f} {
		if !cached(o) {
			t.Errorf("%s was evicted although used more recently than c and d", name)
		}
	}
	if s := check("LRU"); s.CapacityEvictions != 2 || s.CachedEntries != 4 {
		t.Fatalf("after two evictions: %+v", s)
	}

	// An in-flight entry survives any pressure, and its waiters get its
	// result once it lands.
	slow := cfg(200, quarter)
	slow.Seed = 1
	const waiters = 4
	results := make(chan *core.Result, waiters+1)
	hitsBefore := r.Stats().Hits
	for i := 0; i <= waiters; i++ {
		go func() {
			res, _, err := r.Run(slow)
			if err != nil {
				t.Error(err)
			}
			results <- res
		}()
	}
	for r.Stats().Hits < hitsBefore+waiters {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 12; i++ {
		run(cfg(300+i, quarter))
	}
	if cached(slow) {
		t.Fatal("Lookup returned an in-flight entry")
	}
	close(gate)
	first := <-results
	for i := 0; i < waiters; i++ {
		if res := <-results; res != first || res == nil {
			t.Fatal("a coalesced waiter did not get the in-flight run's result")
		}
	}
	if !cached(slow) {
		t.Fatal("the in-flight run's result was not cached when it landed")
	}
	execsBefore := execs.Load()
	if _, hit := run(slow); !hit || execs.Load() != execsBefore {
		t.Fatal("the landed in-flight result was not served from the cache")
	}

	// A result over the whole budget is returned but not stored, by
	// either path in.
	huge := cfg(400, cacheBudget/48+1)
	before := check("before oversize")
	if res, hit := run(huge); hit || len(res.StepPhases) != huge.Steps {
		t.Fatal("an oversize run did not return its own result")
	}
	if cached(huge) {
		t.Fatal("an oversize run was stored")
	}
	hugeM := cfg(401, cacheBudget/48+1)
	if r.Memoize(hugeM, &core.Result{StepPhases: make([]core.PhaseTimes, hugeM.Steps)}) || cached(hugeM) {
		t.Fatal("an oversize Memoize was stored")
	}
	after := check("after oversize")
	if after.CachedBytes != before.CachedBytes || after.CachedEntries != before.CachedEntries {
		t.Fatalf("oversize results disturbed the cache: %+v → %+v", before, after)
	}
	if after.CapacityEvictions != before.CapacityEvictions+2 {
		t.Fatalf("capacity evictions %d → %d, want +2 for the two oversize results", before.CapacityEvictions, after.CapacityEvictions)
	}

	// Errors are evicted as before, and only they count as Evictions.
	failing := cfg(500, 1)
	failing.Seed = 2
	for i := 1; i <= 2; i++ {
		if _, hit, err := r.Run(failing); err == nil || hit {
			t.Fatalf("failing run %d: hit=%v err=%v, want a fresh error", i, hit, err)
		}
	}
	if s := check("errors"); s.Evictions != 2 || s.CapacityEvictions != after.CapacityEvictions {
		t.Fatalf("after two failed runs: Evictions=%d CapacityEvictions=%d, want 2 and %d",
			s.Evictions, s.CapacityEvictions, after.CapacityEvictions)
	}
}
