package bench

import (
	"container/list"
	"fmt"
	"runtime"
	"sync"
	"unsafe"

	"upcbh/internal/core"
	"upcbh/internal/nbody"
)

// Runner executes simulation configurations for the experiment harness
// with two properties the naive per-experiment loop lacks:
//
//   - Memoization: configurations are canonicalized via Options.Key, and
//     each unique configuration simulates exactly once no matter how many
//     tables/figures request it (the strong-scaling tables and the
//     speedup/efficiency figures largely share configs). Concurrent
//     requests for the same key coalesce onto one execution. Completed
//     results are held within a fixed byte budget (cacheBudget), least
//     recently used evicted first, so a long-lived process that finishes
//     sessions forever (bhserve) holds a bounded cache.
//   - Bounded parallelism: independent configurations run concurrently
//     on a worker pool sized to the host's cores, one slot per run. Under
//     the cooperative virtual-time scheduler each simulate run executes
//     on its caller's goroutine (emulated threads are coroutines that
//     one scheduler loop runs in turn), so a pool of NumCPU workers
//     saturates the host without
//     goroutine oversubscription even at 512+ emulated threads per run —
//     the old goroutine-per-thread backend put workers × THREADS runnable
//     goroutines on the scheduler. A ModeNative run takes one slot like
//     any other: its wall-clock phase times are not measurements (host
//     wall-clock is measured by benchmark/ only, DESIGN.md §10), so
//     nothing needs the host to itself.
//
// A Runner is safe for concurrent use and is normally shared across every
// experiment of a bhbench invocation.
type Runner struct {
	sem chan struct{} // worker-pool slots, one per executing run

	// Progress, if non-nil, receives one streamed line per cache event
	// (miss/start, hit). Set it before the first Run call.
	Progress func(format string, args ...any)

	// KeepBodies retains Result.Bodies in cached results. Experiments
	// never read the body state, so by default it is dropped before a
	// result enters the cache (at full scale it dwarfs every timing
	// field combined); the physics-verification harness flips this on
	// to differentially test the final state. Set before the first Run
	// call, and treat cached Bodies as read-only — results are shared.
	KeepBodies bool

	mu    sync.Mutex
	cache map[string]*cacheEntry
	lru   list.List // completed, successful entries, most recently used first
	bytes int       // sum of cost over lru
	stats RunnerStats

	// exec performs one uncached run; tests substitute a counting stub.
	exec func(core.Options) (*core.Result, error)
}

// RunnerStats reports the cache effectiveness of a Runner.
type RunnerStats struct {
	Runs       int `json:"runs"`        // unique configurations executed
	Hits       int `json:"cache_hits"`  // requests served from the cache (incl. coalesced in-flight)
	NativeRuns int `json:"native_runs"` // subset of Runs executed in ModeNative
	Evictions  int `json:"evictions"`   // error results evicted so the key can re-execute

	// Memoize outcomes: externally produced results (the session
	// service's completed runs) offered to the cache. Memoized counts
	// those that landed; MemoizeDropped those that found the key already
	// occupied — racing sessions of one configuration, or a run the cache
	// already completed. A dropped feed is normal, but the split makes
	// the cache's provenance auditable instead of silently discarded.
	Memoized       int `json:"memoized"`
	MemoizeDropped int `json:"memoize_dropped"`

	// The byte budget: completed results resident in the cache, their
	// cost (entryCost) in bytes, and the results evicted or never stored
	// to keep that cost within cacheBudget. In-flight runs are not
	// counted: they cannot be evicted.
	CachedEntries     int `json:"cached_entries"`
	CachedBytes       int `json:"cached_bytes"`
	CapacityEvictions int `json:"capacity_evictions"`
}

// Requests returns the total number of Run calls the stats describe.
func (s RunnerStats) Requests() int { return s.Runs + s.Hits }

// DedupFraction returns the fraction of requests served without a new
// simulation (0 when nothing has run).
func (s RunnerStats) DedupFraction() float64 {
	if s.Requests() == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests())
}

type cacheEntry struct {
	key  string
	done chan struct{} // closed when res/err are valid
	res  *core.Result
	err  error
	elem *list.Element // in Runner.lru; nil while in flight
	cost int
}

// cacheBudget bounds the bytes of completed results the cache holds.
// bhbench's whole suite memoizes well under a megabyte; bhserve finishes
// a session every few milliseconds under churn, each result a few KiB.
const cacheBudget = 4 << 20

// entryCost is what a cached result holds resident: its key, the Result
// and the slices that grow with steps, threads and (under KeepBodies) n.
func entryCost(key string, res *core.Result) int {
	return len(key) + int(unsafe.Sizeof(*res)) +
		int(unsafe.Sizeof(core.PhaseTimes{}))*len(res.StepPhases) +
		int(unsafe.Sizeof(core.ThreadBreakdown{}))*len(res.PerThread) +
		int(unsafe.Sizeof(nbody.Body{}))*len(res.Bodies)
}

// completeLocked puts a finished, successful entry under the byte budget:
// at the front of the LRU, evicting from the back until the total fits.
// An entry over the whole budget is dropped from the map instead.
func (r *Runner) completeLocked(e *cacheEntry) {
	e.cost = entryCost(e.key, e.res)
	if e.cost > cacheBudget {
		delete(r.cache, e.key)
		r.stats.CapacityEvictions++
		return
	}
	e.elem = r.lru.PushFront(e)
	r.bytes += e.cost
	for r.bytes > cacheBudget {
		old := r.lru.Remove(r.lru.Back()).(*cacheEntry)
		delete(r.cache, old.key)
		r.bytes -= old.cost
		r.stats.CapacityEvictions++
	}
}

// touchLocked marks a hit: a completed entry moves to the LRU's front.
func (r *Runner) touchLocked(e *cacheEntry) {
	if e.elem != nil {
		r.lru.MoveToFront(e.elem)
	}
}

// NewRunner builds a Runner with the given worker-pool width; workers <= 0
// means one worker per host core.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		sem:   make(chan struct{}, workers),
		cache: make(map[string]*cacheEntry),
		exec:  runToCompletion,
	}
}

// runToCompletion is the one execution body: build the simulation, run
// the whole schedule, collect the Result. The Result copies all state out
// of the Sim, so the heap storage goes back to the recycling pools on
// return.
func runToCompletion(opts core.Options) (*core.Result, error) {
	sim, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	return sim.Run()
}

// pooled executes opts in one worker-pool slot.
func (r *Runner) pooled(opts core.Options) (*core.Result, error) {
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	r.logf("run: %s", describe(opts))
	return r.exec(opts)
}

// Workers returns the worker-pool width.
func (r *Runner) Workers() int { return cap(r.sem) }

// Stats returns a snapshot of the cache counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.CachedEntries, st.CachedBytes = r.lru.Len(), r.bytes
	return st
}

func (r *Runner) logf(format string, args ...any) {
	if r.Progress != nil {
		r.Progress(format, args...)
	}
}

// describe renders a configuration for progress lines and error context.
// Nil machines are tolerated: exec surfaces the validation error.
func describe(opts core.Options) string {
	threads := 0
	if opts.Machine != nil {
		threads = opts.Machine.Threads
	}
	return fmt.Sprintf("n=%d threads=%d level=%s mode=%s", opts.Bodies, threads, opts.Level, opts.ExecMode)
}

// Run executes one configuration, deduplicating against every
// configuration this Runner has already seen. The returned hit flag
// reports whether the result came from the cache (including coalescing
// onto a concurrently in-flight execution of the same key). Only
// successes are memoized: a failed execution propagates its error to
// every request coalesced onto it, then leaves the cache, so the next
// request for the key executes afresh. A success stays until the byte
// budget evicts it.
func (r *Runner) Run(opts core.Options) (res *core.Result, hit bool, err error) {
	key := opts.Key()
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.stats.Hits++
		r.touchLocked(e)
		r.mu.Unlock()
		r.logf("cache hit: %s", describe(opts))
		<-e.done
		return e.res, true, e.err
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	r.cache[key] = e
	r.stats.Runs++
	if opts.ExecMode == core.ModeNative {
		r.stats.NativeRuns++
	}
	r.mu.Unlock()

	e.res, e.err = r.pooled(opts)
	if e.res != nil && !r.KeepBodies {
		e.res.Bodies = nil
	}
	close(e.done)
	// Waiters coalesced onto the entry hold it and see res/err through
	// done, so it leaves the map (or joins the LRU) only now.
	r.mu.Lock()
	if e.err != nil {
		// Do not memoize failures: a transient error (a native run hitting
		// a resource limit, say) would otherwise be replayed to every
		// later request for the key, forever. The next request for the
		// key re-executes.
		delete(r.cache, key)
		r.stats.Evictions++
	} else {
		r.completeLocked(e)
	}
	r.mu.Unlock()
	return e.res, false, e.err
}

// Lookup peeks at the memoization cache: it returns the completed,
// successful Result stored under opts' key, or reports a miss. It never
// blocks — an in-flight execution is a miss, not something to wait on —
// and never triggers an execution. A successful peek counts as a cache
// hit in the stats. The returned Result is shared: treat it as read-only.
func (r *Runner) Lookup(opts core.Options) (*core.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cache[opts.Key()]
	if !ok || e.elem == nil {
		return nil, false // absent, or still executing
	}
	r.stats.Hits++
	r.touchLocked(e)
	return e.res, true
}

// Memoize stores an externally produced Result under opts' key, so later
// Run/Lookup calls for the configuration hit without executing. Sessions
// driven outside the Runner (the bhserve service steps its own Sims) use
// it to land their completed runs in the shared cache. An entry that
// already exists — completed or in flight — is left untouched; the
// stored copy follows the KeepBodies policy and the byte budget. Reports
// whether the result was stored.
func (r *Runner) Memoize(opts core.Options, res *core.Result) bool {
	cached := *res
	if !r.KeepBodies {
		cached.Bodies = nil
	}
	key := opts.Key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cache[key]; ok {
		r.stats.MemoizeDropped++
		return false
	}
	e := &cacheEntry{key: key, done: make(chan struct{}), res: &cached}
	close(e.done)
	r.cache[key] = e
	r.completeLocked(e)
	if e.elem == nil {
		return false // over the whole budget
	}
	r.stats.Memoized++
	return true
}

// RunAll executes a batch of independent configurations concurrently
// (each bounded by the worker pool and deduplicated via the cache) and
// returns the results in input order, with the per-config hit flags. The
// first error wins, but all runs are waited for.
func (r *Runner) RunAll(opts []core.Options) ([]*core.Result, []bool, error) {
	results := make([]*core.Result, len(opts))
	hits := make([]bool, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i := range opts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], hits[i], errs[i] = r.Run(opts[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", describe(opts[i]), err)
		}
	}
	return results, hits, nil
}
