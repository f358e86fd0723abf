package octree

import (
	"math"
	"slices"
	"testing"

	"upcbh/internal/nbody"
	"upcbh/internal/rng"
	"upcbh/internal/vec"
)

// parBuild runs the five stages of a ParBuild one after the other — the
// stages are barrier-separated, so worker-by-worker execution of each is
// one of the schedules the barriers allow. owner[i] is the worker that
// holds bodies[i]. Returns the builder and, per Src slot, the index of the
// body staged there (the caller-side array core keeps body IDs in).
func parBuild(bodies []nbody.Body, owner []int, workers, depth int) (*ParBuild, []int32) {
	lo, hi := nbody.BoundingBox(bodies)
	center, half := nbody.RootCell(lo, hi)
	pb := &ParBuild{}
	pb.Init(len(bodies), workers, depth, nil, nil)
	own := make([][]int32, workers)
	for i, w := range owner {
		own[w] = append(own[w], int32(i))
	}
	for w := 0; w < workers; w++ {
		pw := pb.Worker(w)
		pw.Begin(center, half, len(own[w]))
		for i, bi := range own[w] {
			pw.Count(i, bodies[bi].Pos)
		}
	}
	from := make([]int32, len(bodies))
	for w := 0; w < workers; w++ {
		pw := pb.Worker(w)
		pw.Offsets()
		for i, bi := range own[w] {
			b := &bodies[bi]
			from[pw.Put(i, b.Pos, b.Mass, b.Cost)] = bi
		}
	}
	for w := 0; w < workers; w++ {
		pb.Worker(w).Build()
	}
	pb.Crown()
	for w := 0; w < workers; w++ {
		pb.Worker(w).Stitch()
	}
	return pb, from
}

// assertSameFlat fails unless got is want array for array: the parallel
// build claims not just an equivalent tree but the serial builder's exact
// arena layout and bits.
func assertSameFlat(t *testing.T, got *FlatTree, from []int32, want *FlatTree) {
	t.Helper()
	if got.Center != want.Center || got.Half != want.Half {
		t.Fatalf("root cube (%v, %g), want (%v, %g)", got.Center, got.Half, want.Center, want.Half)
	}
	if !slices.Equal(got.Nodes, want.Nodes) {
		for i := range want.Nodes {
			if i >= len(got.Nodes) || got.Nodes[i] != want.Nodes[i] {
				t.Fatalf("node %d of %d/%d differs:\ngot  %+v\nwant %+v", i, len(got.Nodes), len(want.Nodes), got.Nodes[min(i, len(got.Nodes)-1)], want.Nodes[i])
			}
		}
		t.Fatalf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	if !slices.Equal(got.Meta, want.Meta) {
		t.Fatal("Meta differs")
	}
	if !slices.Equal(got.Kids, want.Kids) {
		t.Fatalf("Kids differ:\ngot  %v\nwant %v", got.Kids, want.Kids)
	}
	if !slices.Equal(got.PM, want.PM) {
		t.Fatal("PM differs")
	}
	if !slices.Equal(got.Bodies.Pos, want.Bodies.Pos) || !slices.Equal(got.Bodies.Mass, want.Bodies.Mass) ||
		!slices.Equal(got.Bodies.Cost, want.Bodies.Cost) {
		t.Fatal("Bodies differ")
	}
	for j, id := range want.Bodies.ID {
		if from[got.Bodies.ID[j]] != id {
			t.Fatalf("slot %d holds body %d, want %d", j, from[got.Bodies.ID[j]], id)
		}
	}
	// Equal arrays verify alike. (Not "both pass": Verify re-derives cell
	// bounds with rounding and rejects a body exactly on a cell's centre
	// plane, e.g. the lone body of a one-body tree, in the serial tree too.)
	if g, w := got.Verify(), want.Verify(); (g == nil) != (w == nil) {
		t.Fatalf("Verify disagrees: parallel %v, serial %v", g, w)
	}
}

// fuzzBodies draws n distinct positions of one of the shapes that stress
// the builder: smooth, clustered around a few points, snapped to cell
// faces of the root cube's grid, or pairs 2^-40 apart (deep chains, equal
// Morton keys).
func fuzzBodies(r *rng.RNG, n, shape int) []nbody.Body {
	bodies := make([]nbody.Body, n)
	var hubs [4]vec.V3
	for i := range hubs {
		hubs[i] = vec.V3{X: r.Range(-8, 8), Y: r.Range(-8, 8), Z: r.Range(-8, 8)}
	}
	for i := range bodies {
		p := vec.V3{X: r.Range(-8, 8), Y: r.Range(-8, 8), Z: r.Range(-8, 8)}
		switch shape % 4 {
		case 1:
			p = hubs[intn(r, len(hubs))].Add(p.Scale(1.0 / 512))
		case 2:
			// Multiples of 1/4 are cell faces at several crown levels
			// whatever the bounding box turns out to be.
			p.X = math.Round(p.X*4) / 4
			if i%2 == 0 {
				p.Y = math.Round(p.Y*4) / 4
			}
		case 3:
			if i%2 == 1 {
				p = bodies[i-1].Pos
				p.Z += math.Ldexp(1, -40)
			}
		}
		bodies[i] = nbody.Body{Pos: p, Mass: r.Range(0.1, 2), Cost: float64(1 + intn(r, 5)), ID: int32(i)}
	}
	// Both builders panic on coincident positions, by contract.
	seen := map[vec.V3]bool{}
	for i := range bodies {
		for seen[bodies[i].Pos] {
			bodies[i].Pos.X += 1e-9 * (1 + math.Abs(bodies[i].Pos.X))
		}
		seen[bodies[i].Pos] = true
	}
	return bodies
}

// FuzzParallelFlatBuild: for any body set, worker count, crown depth and
// assignment of bodies to workers, the parallel build is the serial
// BuildFlat — every array equal, every float bit-equal.
func FuzzParallelFlatBuild(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(2), uint8(3), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(5), uint8(7), uint8(2), uint8(0), uint8(1))    // n < bins, idle workers
	f.Add(uint64(3), uint16(2000), uint8(4), uint8(1), uint8(1), uint8(2)) // clustered, skewed ownership
	f.Add(uint64(4), uint16(700), uint8(3), uint8(4), uint8(2), uint8(0))  // bodies on cell faces
	f.Add(uint64(5), uint16(400), uint8(8), uint8(3), uint8(3), uint8(1))  // 2^-40 pairs
	f.Add(uint64(6), uint16(0), uint8(1), uint8(0), uint8(0), uint8(0))    // one body, no crown, an idle worker
	f.Add(uint64(2), uint16(0), uint8(29), uint8(2), uint8(9), uint8(58))  // one body under a crown
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, wRaw, dRaw, shape, ownRaw uint8) {
		n := int(nRaw)%3000 + 1
		workers := int(wRaw)%8 + 1
		depth := int(dRaw) % (maxCrownDepth + 1)
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		bodies := fuzzBodies(r, n, int(shape))
		owner := make([]int, n)
		for i := range owner {
			switch ownRaw % 3 {
			case 0: // block-wise, as core's setup deals them
				owner[i] = i * workers / n
			case 1: // at random
				owner[i] = intn(r, workers)
			case 2: // everything on the last worker: the others hold nothing
				owner[i] = workers - 1
			}
		}
		pb, from := parBuild(bodies, owner, workers, depth)
		assertSameFlat(t, &pb.Tree, from, buildFlat(bodies))
	})
}

// TestParallelBuildCorners names the cases the fuzz seeds only brush:
// every body in one bin, and a second build on the same builder (stale
// per-bin records from the first must not leak into it).
func TestParallelBuildCorners(t *testing.T) {
	r := rng.New(11)
	// Two far corners fix the root cube; everything else sits in one bin.
	bodies := fuzzBodies(r, 600, 0)
	for i := range bodies[2:] {
		bodies[2+i].Pos = bodies[2+i].Pos.Scale(1.0 / 4096).Add(vec.V3{X: 3, Y: 3, Z: 3})
	}
	bodies[0].Pos, bodies[1].Pos = vec.V3{X: -8, Y: -8, Z: -8}, vec.V3{X: 8, Y: 8, Z: 8}
	owner := make([]int, len(bodies))
	for i := range owner {
		owner[i] = i % 4
	}
	pb, from := parBuild(bodies, owner, 4, 3)
	assertSameFlat(t, &pb.Tree, from, buildFlat(bodies))

	// Rebuild after the bodies moved: same builder, different occupancy.
	lo, hi := nbody.BoundingBox(bodies)
	center, half := nbody.RootCell(lo, hi)
	for i := range bodies {
		bodies[i].Pos = vec.V3{X: r.Range(-8, 8), Y: r.Range(-8, 8), Z: r.Range(-8, 8)}
	}
	bodies[0].Pos, bodies[1].Pos = vec.V3{X: -8, Y: -8, Z: -8}, vec.V3{X: 8, Y: 8, Z: 8}
	for w := 0; w < 4; w++ {
		pw := pb.Worker(w)
		pw.Begin(center, half, len(bodies)/4)
		for i := 0; i < len(bodies)/4; i++ {
			pw.Count(i, bodies[4*i+w].Pos)
		}
	}
	for w := 0; w < 4; w++ {
		pw := pb.Worker(w)
		pw.Offsets()
		for i := 0; i < len(bodies)/4; i++ {
			b := &bodies[4*i+w]
			from[pw.Put(i, b.Pos, b.Mass, b.Cost)] = int32(4*i + w)
		}
	}
	for w := 0; w < 4; w++ {
		pb.Worker(w).Build()
	}
	pb.Crown()
	for w := 0; w < 4; w++ {
		pb.Worker(w).Stitch()
	}
	assertSameFlat(t, &pb.Tree, from, buildFlat(bodies))
}

func TestCrownDepth(t *testing.T) {
	for _, c := range []struct{ n, workers, want int }{
		{16384, 1, 0}, {64, 2, 0}, {511, 8, 0}, // one worker, or too few bodies to share
		{512, 2, 2}, {1024, 4, 2}, {2048, 2, 3}, {16384, 2, 3}, {16384, 8, 3},
		{16384, 9, 4}, {1 << 20, 112, 4},
	} {
		if got := CrownDepth(c.n, c.workers); got != c.want {
			t.Errorf("CrownDepth(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}
