package main

import (
	"time"

	"upcbh/internal/machine"
	"upcbh/internal/nbody"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// probeSink keeps probe results alive so the compiler cannot drop the
// measured calls.
var probeSink float64

// standaloneProbes times the layers that need no workload state: body
// generation, the interaction kernel, and the wall cost (not the charged
// virtual cost) of the emulated UPC runtime's primitives on a 16-thread
// simulate Runtime — what one scheduler hand-off, one charged remote
// access and one collective rendezvous really cost the host.
func standaloneProbes(c *config, m metrics, tr *tracer) {
	top := tr.lane("probe", noSpan, 0)
	defer tr.end(top)

	n := 16384
	if c.tiny {
		n = 1024
	}
	var gen []float64
	for i := 0; i < 5; i++ {
		sp := tr.begin("nbody.GenerateScenario", top, -1)
		t0 := time.Now()
		bodies, err := nbody.GenerateScenario(nbody.DefaultScenario, n, c.seed+uint64(i))
		gen = append(gen, msSince(t0))
		tr.end(sp)
		if err == nil {
			probeSink += bodies[0].Mass
		}
	}
	m["nbody.generate_ms"] = median(gen)

	const calls = 1_000_000
	bodies := nbody.Plummer(1024, c.seed)
	sp := tr.begin("nbody.Interact", top, -1)
	t0 := time.Now()
	var acc vec.V3
	for i := 0; i < calls; i++ {
		a, b := &bodies[i&1023], &bodies[(i*7+1)&1023]
		d, phi := nbody.Interact(a.Pos, b.Pos, b.Mass, 0.0025)
		acc = acc.Add(d)
		probeSink += phi
	}
	m["nbody.interact_ns"] = float64(time.Since(t0)) / calls
	tr.end(sp)
	probeSink += acc.X

	upcProbes(c, m, tr, top)
}

func upcProbes(c *config, m metrics, tr *tracer, parent spanID) {
	iters := 2000
	if c.tiny {
		iters = 50
	}
	rt := upc.NewRuntimeMode(machine.Default(simThreads), upc.ModeSimulate)
	heap := upc.NewHeap[[8]float64](rt, 4096)
	lock := rt.NewLock(0)
	// Every thread runs body iters times; under the cooperative scheduler
	// the threads execute one at a time, so the wall of the whole Run over
	// the operations issued is the host cost of one operation.
	section := func(name string, perIter float64, body func(t *upc.Thread)) {
		sp := tr.begin("upc."+name, parent, -1)
		t0 := time.Now()
		rt.Run(func(t *upc.Thread) {
			for i := 0; i < iters; i++ {
				body(t)
			}
		})
		m["upc."+name+"_ns"] = float64(time.Since(t0)) / (float64(iters) * perIter)
		tr.end(sp)
	}

	rt.Run(func(t *upc.Thread) {
		heap.Alloc(t, 64)
		t.Barrier()
	})
	refs := make([][]upc.Ref, simThreads)
	dsts := make([][][8]float64, simThreads)
	for me := range refs {
		for i := 0; i < 64; i++ {
			refs[me] = append(refs[me], upc.Ref{Thr: int32((me + 1) % simThreads), Idx: int32(i)})
		}
		dsts[me] = make([][8]float64, 64)
	}
	section("barrier", 1, func(t *upc.Thread) { t.Barrier() })
	section("remote_get", simThreads, func(t *upc.Thread) {
		v := heap.Get(t, refs[t.ID()][0])
		dsts[t.ID()][0] = v
	})
	section("gather64", simThreads, func(t *upc.Thread) { heap.Gather(t, refs[t.ID()], dsts[t.ID()]) })
	section("broadcast", 1, func(t *upc.Thread) { upc.Broadcast(t, 0, float64(t.ID())) })
	section("lock", simThreads, func(t *upc.Thread) {
		lock.Acquire(t)
		lock.Release(t)
	})
}
