package octree

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"upcbh/internal/nbody"
	"upcbh/internal/rng"
	"upcbh/internal/vec"
)

// ulpTol is the "1 ulp-scale" relative tolerance for aggregate
// comparisons. Build paths are constructed to use the identical
// operation order, so the expected divergence is exactly zero; the
// tolerance only shields against FMA-contraction differences between
// inlined copies of the same expressions on some architectures.
const ulpTol = 1e-15

func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*(1+m)
}

func vecClose(a, b vec.V3, tol float64) bool {
	return a.Sub(b).Len() <= tol*(1+b.Len())
}

// buildFlat builds a flat tree over bodies, root cube from their
// bounding box, as the pointer tree's Build does.
func buildFlat(bodies []nbody.Body) *FlatTree {
	ft := &FlatTree{}
	ft.Rebuild(bodies)
	return ft
}

// forceOn computes the force on the body in SoA slot `body` (skipping
// it) as a one-lane batch of the tree's own walker.
func forceOn(ft *FlatTree, body int32, theta, eps float64) (acc vec.V3, phi float64, inter int) {
	var b FlatBatch
	b.N = 1
	b.Pos[0] = ft.Bodies.Pos[body]
	b.Skip[0] = body
	ft.walker.ForceBatch(ft, &b, theta, eps)
	return b.Acc[0], b.Phi[0], b.Inter[0]
}

// assertFlatMatchesPointer checks full structural + aggregate equivalence
// between a flat tree and a pointer tree over the same bodies: same DFS
// node sequence, same octant child shapes, same leaf (Morton/DFS) order,
// and bit-scale-identical aggregates.
func assertFlatMatchesPointer(t *testing.T, ft *FlatTree, pt *Tree, bodies []nbody.Body) {
	t.Helper()
	if err := ft.Verify(); err != nil {
		t.Fatalf("flat Verify: %v", err)
	}
	if err := pt.Verify(); err != nil {
		t.Fatalf("pointer Verify: %v", err)
	}
	assertFlatIsPointer(t, ft, pt, bodies)
}

// assertFlatIsPointer is assertFlatMatchesPointer without the Verify
// calls, for body sets on cell planes: Verify re-derives cell bounds
// with rounding and can reject a body exactly on a plane in either tree.
func assertFlatIsPointer(t *testing.T, ft *FlatTree, pt *Tree, bodies []nbody.Body) {
	t.Helper()
	if len(ft.Nodes) != pt.Cells {
		t.Fatalf("cell count: flat %d, pointer %d", len(ft.Nodes), pt.Cells)
	}
	if ft.Bodies.Len() != pt.Leaf {
		t.Fatalf("leaf count: flat %d, pointer %d", ft.Bodies.Len(), pt.Leaf)
	}

	nextNode := int32(0)
	nextBody := int32(0)
	var walk func(pn *Node)
	walk = func(pn *Node) {
		idx := nextNode
		nextNode++
		fn := &ft.Nodes[idx]
		mt := &ft.Meta[idx]
		if mt.Center != pn.Center || mt.Half != pn.Half {
			t.Fatalf("node %d cube mismatch: flat (%v,%g) pointer (%v,%g)",
				idx, mt.Center, mt.Half, pn.Center, pn.Half)
		}
		if l := 2 * pn.Half; fn.LSq != l*l {
			t.Fatalf("node %d LSq %g != (2*half)^2 %g", idx, fn.LSq, l*l)
		}
		if !vecClose(fn.CofM, pn.CofM, ulpTol) || !relClose(fn.Mass, pn.Mass, ulpTol) ||
			!relClose(mt.Cost, pn.Cost, ulpTol) || int(mt.N) != pn.N {
			t.Fatalf("node %d aggregates mismatch: flat {cofm %v m %v c %v n %d} pointer {cofm %v m %v c %v n %d}",
				idx, fn.CofM, fn.Mass, mt.Cost, mt.N, pn.CofM, pn.Mass, pn.Cost, pn.N)
		}
		k := fn.First
		end := fn.First + fn.Count
		for oct, pch := range pn.Child {
			if pch == nil {
				continue
			}
			if k >= end {
				t.Fatalf("node %d: pointer has a child in oct %d beyond flat kid range", idx, oct)
			}
			fc := ft.Kids[k]
			if got := ft.KidOctant(idx, fc); got != oct {
				t.Fatalf("node %d kid %d: flat octant %d, pointer octant %d", idx, k, got, oct)
			}
			k++
			if pch.IsLeaf() {
				if fc >= 0 {
					t.Fatalf("node %d oct %d: flat child %d is not a leaf", idx, oct, fc)
				}
				bi := FlatLeafBody(fc)
				if bi != nextBody {
					t.Fatalf("leaf order: flat body %d, expected DFS position %d", bi, nextBody)
				}
				nextBody++
				if ft.Bodies.Pos[bi] != pch.Body.Pos || ft.Bodies.Mass[bi] != pch.Body.Mass {
					t.Fatalf("leaf %d body mismatch", bi)
				}
				// The flat leaf must refer back to the same input body.
				orig := ft.Bodies.ID[bi]
				if bodies != nil && &bodies[orig] != pch.Body {
					t.Fatalf("leaf %d maps to input body %d, pointer leaf holds a different body", bi, orig)
				}
				continue
			}
			if fc < 0 {
				t.Fatalf("node %d oct %d: flat child %d is not a cell", idx, oct, fc)
			}
			walk(pch)
		}
		if k != end {
			t.Fatalf("node %d: flat has %d extra kids beyond the pointer children", idx, end-k)
		}
	}
	walk(pt.Root)
	if int(nextNode) != len(ft.Nodes) {
		t.Fatalf("visited %d of %d flat cells", nextNode, len(ft.Nodes))
	}
}

func TestFlatMatchesPointerScenarios(t *testing.T) {
	for _, scn := range nbody.ScenarioNames() {
		for _, n := range []int{1, 2, 3, 17, 256, 2048} {
			bodies, err := nbody.GenerateScenario(scn, n, 7)
			if err != nil {
				t.Fatal(err)
			}
			pt := Build(bodies)
			ft := buildFlat(bodies)
			t.Run(scn, func(t *testing.T) { assertFlatMatchesPointer(t, ft, pt, bodies) })
		}
	}
}

// TestFlatForceMatchesPointer pins the walk-order contract: for equal
// trees the flat kernel's accumulation sequence is identical to the
// recursive pointer walk, so forces agree to ulp scale for every body.
func TestFlatForceMatchesPointer(t *testing.T) {
	bodies := nbody.Plummer(1024, 3)
	pt := Build(bodies)
	ft := buildFlat(bodies)
	for _, theta := range []float64{0.3, 1.0, 1.8} {
		for j := 0; j < ft.Bodies.Len(); j++ {
			orig := ft.Bodies.ID[j]
			pacc, pphi, pinter := pt.ForceOn(&bodies[orig], theta, 0.05)
			facc, fphi, finter := forceOn(ft, int32(j), theta, 0.05)
			if finter != pinter {
				t.Fatalf("theta=%g body %d: interaction count flat %d pointer %d", theta, orig, finter, pinter)
			}
			if !vecClose(facc, pacc, ulpTol) || !relClose(fphi, pphi, ulpTol) {
				t.Fatalf("theta=%g body %d: acc flat %v pointer %v, phi flat %g pointer %g",
					theta, orig, facc, pacc, fphi, pphi)
			}
		}
	}
}

func TestSolveFlatMatchesSolve(t *testing.T) {
	ref := nbody.Plummer(512, 11)
	flat := nbody.Plummer(512, 11)
	Solve(ref, 1.0, 0.05)
	buildFlat(flat).SolveInto(flat, 1.0, 0.05)
	for i := range ref {
		if !vecClose(flat[i].Acc, ref[i].Acc, ulpTol) || !relClose(flat[i].Phi, ref[i].Phi, ulpTol) ||
			flat[i].Cost != ref[i].Cost {
			t.Fatalf("body %d: flat {acc %v phi %g cost %g} ref {acc %v phi %g cost %g}",
				i, flat[i].Acc, flat[i].Phi, flat[i].Cost, ref[i].Acc, ref[i].Phi, ref[i].Cost)
		}
	}
}

// TestFlatRebuildReusesArenas pins the arena contract: rebuilding over a
// same-sized body set allocates nothing.
func TestFlatRebuildReusesArenas(t *testing.T) {
	bodies := nbody.Plummer(2048, 9)
	ft := buildFlat(bodies)
	allocs := testing.AllocsPerRun(10, func() {
		// Jitter positions so every rebuild does real work.
		for i := range bodies {
			bodies[i].Pos = bodies[i].Pos.AddScaled(bodies[i].Vel, 1e-3)
		}
		ft.Rebuild(bodies)
	})
	if allocs > 0 {
		t.Errorf("Rebuild allocated %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestFlatForceOnZeroAlloc is the allocation-regression gate for the hot
// kernel: after stack warmup, a one-lane ForceBatch performs zero
// allocations.
func TestFlatForceOnZeroAlloc(t *testing.T) {
	bodies := nbody.Plummer(4096, 1)
	ft := buildFlat(bodies)
	forceOn(ft, 0, 1.0, 0.05) // warm the walker's buffers
	j := int32(0)
	allocs := testing.AllocsPerRun(100, func() {
		forceOn(ft, j%int32(ft.Bodies.Len()), 1.0, 0.05)
		j++
	})
	if allocs > 0 {
		t.Errorf("flat ForceOn allocated %.1f objects/op, want 0", allocs)
	}
}

// TestFlatMatchesPointerOnFuzzShapes: the flat build is the pointer
// build on every shape FuzzParallelFlatBuild draws — the drifted steps
// the key presort is tuned for, and bodies hugging cell planes, where a
// key digit is only trusted as far as the body's trust says. The pointer
// tree splits by the Octant test alone, so it is an oracle the keys do
// not touch (FuzzParallelFlatBuild compares two builds that both use
// them).
func TestFlatMatchesPointerOnFuzzShapes(t *testing.T) {
	for shape := range 6 {
		for seed := range uint64(8) {
			r := rng.New(seed*6 + uint64(shape))
			for _, n := range []int{3, 100, 700} {
				bodies := fuzzBodies(r, n, shape)
				assertFlatIsPointer(t, buildFlat(bodies), Build(bodies), bodies)
			}
		}
	}
}

// TestKeyDigitsMatchOctant pins the key's contract directly: wherever a
// key says its body trusts it, its digit at that level is the octant the
// Octant test gives against the cell centre the ChildBounds chain
// computes. Bodies sit on, a few ulps off and fractions of a quantum off
// cell planes, in cubes near and far from the origin (past 2^20
// half-sides, where the float bound fails and nothing is trusted).
func TestKeyDigitsMatchOctant(t *testing.T) {
	r := rng.New(3)
	trusted := 0
	for trial := range 300 {
		bodies := fuzzBodies(r, 64, 5)
		lo, hi := nbody.BoundingBox(bodies)
		center, half := nbody.RootCell(lo, hi)
		if trial%3 == 2 {
			// Off the origin: the same bodies and cube, shifted by up to
			// 2^44 half-sides (past 2^20 no key is trusted).
			off := vec.V3{X: math.Ldexp(half, intn(r, 45)), Y: -math.Ldexp(half, intn(r, 21)), Z: 3}
			center = center.Add(off)
			for i := range bodies {
				bodies[i].Pos = bodies[i].Pos.Add(off)
			}
		}
		kc := newKeyCube(center, half)
		keys := make([]uint64, len(bodies))
		pos := make([]vec.V3, len(bodies))
		for i := range bodies {
			pos[i] = bodies[i].Pos
		}
		kc.fill(keys, pos)
		for i, k := range keys {
			c, h := center, half
			for level := 0; uint64(level+1) < k&trustBits; level++ {
				o := Octant(c, pos[i])
				if d := int(k >> uint(60-3*level) & 7); d != o {
					t.Fatalf("trial %d body %v: level %d digit %d, Octant %d (trust %d, cube %v/%g)", trial, pos[i], level, d, o, k&trustBits, center, half)
				}
				trusted++
				c, h = ChildBounds(c, h, o)
			}
		}
	}
	if trusted == 0 {
		t.Fatal("no key digit was trusted")
	}
}

// TestPresortMatchesStableSort: from presortMin keys up, presort is a
// stable sort of (keys, perm) on the 24 key bits below the keys' common
// prefix — keys and perm equal to slices.SortStableFunc's on that window
// — on sorted, nearly sorted, reversed, all-equal, random and clustered
// input (where the common prefix is long and the window sits low); below
// it the input is left as it is. The build does not need the
// stability (split makes any order canonical), but the contract pins
// what the window covers. FuzzParallelFlatBuild cannot catch a wrong
// window: both of its sides call this same function.
func TestPresortMatchesStableSort(t *testing.T) {
	r := rng.New(7)
	inputs := []struct {
		name string
		gen  func(n int) []uint64
	}{
		{"sorted", func(n int) []uint64 {
			keys := randomKeys(r, n)
			slices.Sort(keys)
			return keys
		}},
		{"adjacent-swap", func(n int) []uint64 {
			keys := randomKeys(r, n)
			slices.Sort(keys)
			if n >= 2 {
				keys[n/2-1], keys[n/2] = keys[n/2], keys[n/2-1]
			}
			return keys
		}},
		{"reversed", func(n int) []uint64 {
			keys := randomKeys(r, n)
			slices.Sort(keys)
			slices.Reverse(keys)
			return keys
		}},
		{"all-equal", func(n int) []uint64 {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = 0x5555_5555_5555
			}
			return keys
		}},
		{"random", func(n int) []uint64 { return randomKeys(r, n) }},
		{"clustered", func(n int) []uint64 {
			keys := randomKeys(r, n)
			for i := range keys {
				keys[i] = 0x2a5<<50 | keys[i]>>30
			}
			return keys
		}},
	}
	for _, n := range []int{0, 1, 2, presortMin - 1, presortMin, presortMin + 1, 4096} {
		for _, in := range inputs {
			keys := in.gen(n)
			perm := make([]int32, n)
			for i := range perm {
				perm[i] = int32(i)
			}
			if n < presortMin {
				orig := slices.Clone(keys)
				presort(keys, perm, make([]uint64, n), make([]int32, n))
				if !slices.Equal(keys, orig) || !slices.IsSorted(perm) {
					t.Fatalf("n=%d %s: presort reordered an input below presortMin", n, in.name)
				}
				continue
			}
			var diff uint64
			for _, k := range keys {
				diff |= k ^ keys[0]
			}
			diff &^= trustBits
			low := max(bits.Len64(diff)-24, 0)
			want := slices.Clone(perm)
			slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a]>>low, keys[b]>>low) })
			orig := slices.Clone(keys)
			presort(keys, perm, make([]uint64, n), make([]int32, n))
			for i := range want {
				if perm[i] != want[i] || keys[i] != orig[want[i]] {
					t.Fatalf("n=%d %s: slot %d holds (key %#x, perm %d), stable sort has (key %#x, perm %d)",
						n, in.name, i, keys[i], perm[i], orig[want[i]], want[i])
				}
			}
		}
	}
}

// randomKeys draws n keys of mixed magnitudes: every byte of a key
// varies somewhere, and the small ones repeat, so ties are common.
func randomKeys(r *rng.RNG, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64() >> (r.Uint64() % 64)
	}
	return keys
}

// FuzzFlatEquivalence drives the property through arbitrary body sets:
// for any (separable) positions, the arena tree is structurally
// equivalent to the pointer tree, passes both verifiers, and produces
// ulp-identical forces.
func FuzzFlatEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(8), int64(0))
	f.Add(uint64(99), uint16(100), int64(1<<40))
	f.Add(uint64(7), uint16(2), int64(-12345))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, rawBits int64) {
		n := int(nRaw)%200 + 2
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		bodies := make([]nbody.Body, n)
		for i := range bodies {
			// Mix smooth random positions with a fuzz-controlled raw
			// coordinate to probe cell-boundary rounding.
			bodies[i].Pos = vec.V3{X: r.Range(-8, 8), Y: r.Range(-8, 8), Z: r.Range(-8, 8)}
			bodies[i].Mass = r.Range(0.1, 2)
			bodies[i].Cost = float64(intn(r, 5))
			bodies[i].ID = int32(i)
		}
		fv := math.Float64frombits(uint64(rawBits))
		if !math.IsNaN(fv) && !math.IsInf(fv, 0) && math.Abs(fv) < 8 {
			bodies[0].Pos.X = fv
		}
		// Reject coincident positions (both builders panic on them, by
		// contract).
		seen := map[vec.V3]bool{}
		for i := range bodies {
			for seen[bodies[i].Pos] {
				bodies[i].Pos.X += 1e-9 * (1 + math.Abs(bodies[i].Pos.X))
			}
			seen[bodies[i].Pos] = true
		}
		pt := Build(bodies)
		ft := buildFlat(bodies)
		assertFlatMatchesPointer(t, ft, pt, bodies)

		// Every body, through every force-kernel implementation this host
		// can run, in full batches (so all sixteen lanes are exercised).
		for _, k := range testKernels() {
			got := solveWith(ft, k, 0.8, 0.05)
			for j := 0; j < ft.Bodies.Len(); j++ {
				orig := ft.Bodies.ID[j]
				pacc, pphi, pinter := pt.ForceOn(&bodies[orig], 0.8, 0.05)
				g := got[j]
				if g.inter != pinter || !vecClose(g.acc, pacc, ulpTol) || !relClose(g.phi, pphi, ulpTol) {
					t.Fatalf("%s body %d: flat force {%v %g %d} != pointer {%v %g %d}",
						k.name, orig, g.acc, g.phi, g.inter, pacc, pphi, pinter)
				}
			}
		}
	})
}

// testKernels lists the force-kernel implementations this host can run:
// the portable one first, then every SIMD kernel the CPU has, not only the
// one Kernel() picked.
func testKernels() []*laneKernel {
	return append([]*laneKernel{&portableKernel}, simdKernels()...)
}

type laneResult struct {
	acc   vec.V3
	phi   float64
	inter int
}

// solveWith is SolveInto with an explicit kernel: the force on every
// body (self skipped), indexed by SoA slot, walked in Morton order in
// batches of FlatBatchWidth.
func solveWith(ft *FlatTree, k *laneKernel, theta, eps float64) []laneResult {
	var w FlatWalker
	return solveOn(&w, ft, k, theta, eps)
}

// solveOn is solveWith on the caller's walker.
func solveOn(w *FlatWalker, ft *FlatTree, k *laneKernel, theta, eps float64) []laneResult {
	var fb FlatBatch
	n := ft.Bodies.Len()
	out := make([]laneResult, n)
	for j := 0; j < n; j += FlatBatchWidth {
		fb.N = min(FlatBatchWidth, n-j)
		for lane := 0; lane < fb.N; lane++ {
			fb.Pos[lane] = ft.Bodies.Pos[j+lane]
			fb.Skip[lane] = int32(j + lane)
		}
		w.forceBatch(ft, &fb, theta, eps, k)
		for lane := 0; lane < fb.N; lane++ {
			out[j+lane] = laneResult{fb.Acc[lane], fb.Phi[lane], fb.Inter[lane]}
		}
	}
	return out
}

// TestKernelAVX2MatchesPortable is the assembly's contract: on every
// body of every scenario, across opening angles and with and without
// softening, every fused SIMD kernel the host can run (AVX2, AVX-512)
// produces exactly (==) the portable kernel's accelerations, potentials
// and interaction counts. It logs which kernels it compared, so a run on a
// host without AVX-512 is not read as coverage of that kernel.
func TestKernelAVX2MatchesPortable(t *testing.T) {
	ks := testKernels()
	var names []string
	for _, k := range ks {
		names = append(names, k.name)
	}
	t.Logf("Kernel() = %q; tested kernels: %v", Kernel(), names)
	simd := ks[1:]
	if len(simd) == 0 {
		t.Skipf("no SIMD force kernel on this host/build (Kernel() = %q): nothing to compare", Kernel())
	}
	n := 1501 // not a multiple of FlatBatchWidth: the last batch has a 13-lane tail
	if testing.Short() {
		n = 301
	}
	for _, scn := range nbody.ScenarioNames() {
		bodies, err := nbody.GenerateScenario(scn, n, 5)
		if err != nil {
			t.Fatal(err)
		}
		ft := buildFlat(bodies)
		for _, theta := range []float64{0.3, 0.5, 1.0, 1.8} {
			for _, eps := range []float64{0, 0.05} {
				want := solveWith(ft, &portableKernel, theta, eps)
				for _, k := range simd {
					got := solveWith(ft, k, theta, eps)
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s theta=%g eps=%g slot %d: %s %+v != portable %+v",
								scn, theta, eps, j, k.name, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// batchOracle runs b through the portable kernel, checks its shared list
// against the canonical interaction kernel (checkReferenceStream), then
// runs every other kernel the host has on the same batch and requires
// its Acc/Phi/Inter to be == the portable ones. It returns the portable
// list (valid until w's next walk) with the portable results left in b.
func batchOracle(w *FlatWalker, ft *FlatTree, b *FlatBatch, theta, eps float64) ([]laneEntry, error) {
	w.forceBatch(ft, b, theta, eps, &portableKernel)
	if err := checkReferenceStream(w, b, eps); err != nil {
		return nil, fmt.Errorf("portable: %v", err)
	}
	for _, k := range testKernels()[1:] {
		var w2 FlatWalker
		got := *b
		w2.forceBatch(ft, &got, theta, eps, k)
		for lane := 0; lane < b.N; lane++ {
			if got.Acc[lane] != b.Acc[lane] || got.Phi[lane] != b.Phi[lane] || got.Inter[lane] != b.Inter[lane] {
				return nil, fmt.Errorf("lane %d: %s {%v %g %d} != portable {%v %g %d}", lane, k.name,
					got.Acc[lane], got.Phi[lane], got.Inter[lane], b.Acc[lane], b.Phi[lane], b.Inter[lane])
			}
		}
	}
	return w.list, nil
}

// TestForceBatchUnrollReferenceStream pins the kernels against the
// canonical interaction kernel: after a portable batch walk,
// re-streaming each lane's masked entries of the shared list through
// nbody.InteractAccum in list order must reproduce Acc/Phi to within
// ulpTol and Inter exactly, and every fused kernel the host has, which
// keeps no list, must produce == the portable results for the same
// batch. The sweep covers what the lane layout makes interesting: batch
// tails of 1..15 lanes (unused lanes contribute nothing), entries whose
// lanes 0-7 or lanes 8-15 are all masked out (a lane group with no pass,
// or a pass that writes nothing), entries with one 4-lane half of a lane
// group masked out (the AVX2 kernel's halves), eps = 0 (the self-skip
// lane computes 0*Inf; a leaked mask shows up as NaN), Skip = -1 and a
// Skip slot outside the batch.
//
// The reference comparison uses ulpTol rather than exact == for the
// reason the file header documents: a reference loop compiled here is a
// separate inlined copy of the same expressions, and copies can differ
// by an ulp on architectures that fuse. The hard bit-identity contracts —
// every SIMD kernel == portable, flat == recursive pointer walk — are
// enforced here and by TestKernelAVX2MatchesPortable,
// TestFlatVsPointerPerScenario and core's TestNativeFlatExactSingleThread.
func TestForceBatchUnrollReferenceStream(t *testing.T) {
	const (
		skipSelf  = iota // the lane's own slot: the hot path
		skipNone         // -1
		skipOther        // another body's slot: outside the batch when the tree has one
	)
	var groupEmpty [2]int              // entries of two-group batches with lanes 0-7 / 8-15 masked out
	var halfEmpty [2]int               // entries with the low / high half of a non-empty group masked out
	var outside int                    // skipOther slots of full batches outside their batch
	var tails [FlatBatchWidth + 1]bool // batch widths seen
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33, 40, 257} {
		ft := buildFlat(nbody.Plummer(n, uint64(n)))
		nb := ft.Bodies.Len()
		var w FlatWalker
		var b FlatBatch
		for _, theta := range []float64{0.5, 1.0, 1.8} {
			for _, eps := range []float64{0, 0.05} {
				for mode := skipSelf; mode <= skipOther; mode++ {
					for base := 0; base < nb; base += FlatBatchWidth {
						b.N = min(FlatBatchWidth, nb-base)
						tails[b.N] = true
						for lane := 0; lane < b.N; lane++ {
							b.Pos[lane] = ft.Bodies.Pos[base+lane]
							switch mode {
							case skipSelf:
								b.Skip[lane] = int32(base + lane)
							case skipNone:
								b.Skip[lane] = -1
							case skipOther:
								slot := (base + lane + 1) % nb // another lane's, in a one-batch tree
								if nb > b.N {
									slot = (base + b.N + lane%(nb-b.N)) % nb
								}
								b.Skip[lane] = int32(slot)
								if b.N == FlatBatchWidth && (slot < base || slot >= base+b.N) {
									outside++
								}
							}
							if mode != skipSelf {
								// Off every body, so nothing coincides
								// with an interaction partner at eps = 0.
								b.Pos[lane].X += 1e-3
							}
						}
						list, err := batchOracle(&w, ft, &b, theta, eps)
						if err != nil {
							t.Fatalf("n=%d theta=%g eps=%g mode %d base %d: %v", n, theta, eps, mode, base, err)
						}
						for _, q := range list {
							for g := 0; g < 2; g++ {
								m := q.Mask >> uint(g*laneGroup) & 0xff
								if m == 0 {
									if b.N > laneGroup {
										groupEmpty[g]++
									}
									continue
								}
								if m&0x0f == 0 {
									halfEmpty[0]++
								}
								if m&0xf0 == 0 {
									halfEmpty[1]++
								}
							}
						}
					}
				}
			}
		}
	}
	if groupEmpty[0] == 0 || groupEmpty[1] == 0 {
		t.Errorf("sweep saw %d entries with lanes 0-7 masked out and %d with lanes 8-15: want both > 0", groupEmpty[0], groupEmpty[1])
	}
	if halfEmpty[0] == 0 || halfEmpty[1] == 0 {
		t.Errorf("sweep saw %d entries with a group's low half masked out and %d with its high half: want both > 0", halfEmpty[0], halfEmpty[1])
	}
	if outside == 0 {
		t.Errorf("no full batch skipped a slot outside itself")
	}
	for width := 1; width <= FlatBatchWidth; width++ {
		if !tails[width] {
			t.Errorf("sweep never ran a %d-lane batch", width)
		}
	}
}

// checkReferenceStream re-streams the shared list the walker retains
// after a portable forceBatch call: every entry's mask must name only
// lanes of the batch, and each lane's masked subsequence, fed through
// nbody.InteractAccum in list order, must reproduce what the kernel
// wrote for that lane.
func checkReferenceStream(w *FlatWalker, b *FlatBatch, eps float64) error {
	for _, q := range w.list {
		if q.Mask == 0 || q.Mask>>uint(b.N) != 0 {
			return fmt.Errorf("entry mask %#x for a %d-lane batch", q.Mask, b.N)
		}
	}
	for lane := 0; lane < b.N; lane++ {
		var acc vec.V3
		var phi float64
		inter := 0
		for _, q := range w.list {
			if q.Mask>>uint(lane)&1 == 0 {
				continue
			}
			nbody.InteractAccum(&acc, &phi, b.Pos[lane], q.Pos, q.Mass, eps*eps)
			inter++
		}
		if !vecClose(b.Acc[lane], acc, ulpTol) || !relClose(b.Phi[lane], phi, ulpTol) || b.Inter[lane] != inter {
			return fmt.Errorf("lane %d: batch {%v %g %d} != reference {%v %g %d}",
				lane, b.Acc[lane], b.Phi[lane], b.Inter[lane], acc, phi, inter)
		}
	}
	return nil
}

// TestForceBatchRootCell covers the first cell the walk visits: the root
// gets the opening test like any other cell, and every lane of the batch
// may accept it (one interaction each, nothing opened), only some (the
// rest descend under a partial mask from the very first frame: one lane
// group, a half of each, a scattered set) or none.
func TestForceBatchRootCell(t *testing.T) {
	ft := buildFlat(nbody.Plummer(300, 4))
	far := func(lane int) vec.V3 { // well outside the root cube: theta = 1 accepts it
		return ft.Center.Add(vec.V3{X: 40 * ft.Half, Y: float64(lane) * ft.Half})
	}
	for _, tc := range []struct {
		name string
		far  uint32 // lanes placed far away
	}{
		{"all", 0xffff}, {"none", 0}, {"lanes 0-7", 0x00ff}, {"lanes 8-15", 0xff00},
		{"low halves", 0x0f0f}, {"high half of lanes 8-15", 0xf000}, {"mixed", 0xa55a}, {"one", 0x4000},
	} {
		for _, n := range []int{FlatBatchWidth, 11, laneGroup, 5, 1} {
			var w FlatWalker
			var b FlatBatch
			b.N = n
			for lane := 0; lane < n; lane++ {
				b.Skip[lane] = int32(lane)
				b.Pos[lane] = ft.Bodies.Pos[lane]
				if tc.far>>uint(lane)&1 != 0 {
					b.Skip[lane] = -1
					b.Pos[lane] = far(lane)
				}
			}
			list, err := batchOracle(&w, ft, &b, 1.0, 0.05)
			if err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, n, err)
			}
			wantRoot := tc.far & (1<<uint(n) - 1)
			gotRoot := uint32(0)
			if root := (PosMass{ft.Nodes[0].CofM, ft.Nodes[0].Mass}); list[0].PosMass == root {
				gotRoot = list[0].Mask
			}
			if gotRoot != wantRoot {
				t.Fatalf("%s n=%d: root accepted by lanes %#x, want %#x", tc.name, n, gotRoot, wantRoot)
			}
			for lane := 0; lane < n; lane++ {
				if isFar := wantRoot>>uint(lane)&1 != 0; isFar != (b.Inter[lane] == 1) {
					t.Fatalf("%s n=%d lane %d: %d interactions, far=%v", tc.name, n, lane, b.Inter[lane], isFar)
				}
			}
		}
	}
}

// TestForceBatchDivergentGroups puts a batch's two lane groups in
// different octants of the root: lanes 0-7 are the first eight bodies in
// Morton order, lanes 8-15 the last eight. Below the root the groups'
// walks part at once — the cells on one group's way down are far from the
// other group — so the walk meets records that only one group interacts
// with, and frames where only one group still has active lanes. Every
// kernel must be == portable on every lane.
func TestForceBatchDivergentGroups(t *testing.T) {
	ft := buildFlat(nbody.Plummer(2000, 9))
	nb := ft.Bodies.Len()
	octant := func(p vec.V3) int {
		o := 0
		if p.X >= ft.Center.X {
			o |= 1
		}
		if p.Y >= ft.Center.Y {
			o |= 2
		}
		if p.Z >= ft.Center.Z {
			o |= 4
		}
		return o
	}
	var b FlatBatch
	b.N = FlatBatchWidth
	for lane := 0; lane < FlatBatchWidth; lane++ {
		slot := lane
		if lane >= laneGroup {
			slot = nb - FlatBatchWidth + lane
		}
		b.Pos[lane], b.Skip[lane] = ft.Bodies.Pos[slot], int32(slot)
	}
	for lane := 1; lane < FlatBatchWidth; lane++ {
		if sameGroup := lane < laneGroup; (octant(b.Pos[lane]) == octant(b.Pos[0])) != sameGroup {
			t.Fatalf("lane %d sits in root octant %d and lane 0 in %d: the groups must each fill one octant, a different one",
				lane, octant(b.Pos[lane]), octant(b.Pos[0]))
		}
	}
	var w FlatWalker
	for _, theta := range []float64{0.3, 0.5, 1.0, 1.8} {
		for _, eps := range []float64{0, 0.05} {
			got := b
			list, err := batchOracle(&w, ft, &got, theta, eps)
			if err != nil {
				t.Fatalf("theta=%g eps=%g: %v", theta, eps, err)
			}
			var only [2]int
			for _, q := range list {
				switch {
				case q.Mask&0xff00 == 0:
					only[0]++
				case q.Mask&0x00ff == 0:
					only[1]++
				}
			}
			if only[0] == 0 || only[1] == 0 {
				t.Errorf("theta=%g eps=%g: %d records for lanes 0-7 alone and %d for lanes 8-15 alone: want both > 0",
					theta, eps, only[0], only[1])
			}
		}
	}
}

// TestForceAtBodyPositionSkipsBySlot pins that self-skip is by SoA slot,
// never by position: a query at a body's exact position with Skip = -1
// interacts with that body (zero force, -m/eps potential, one more
// interaction than the same query skipping the slot), in every kernel.
func TestForceAtBodyPositionSkipsBySlot(t *testing.T) {
	ft := buildFlat(nbody.Plummer(200, 6))
	const theta, eps = 0.7, 0.05
	var w FlatWalker
	var with, without FlatBatch
	for base := 0; base+FlatBatchWidth <= ft.Bodies.Len(); base += FlatBatchWidth {
		with.N, without.N = FlatBatchWidth, FlatBatchWidth
		for lane := 0; lane < FlatBatchWidth; lane++ {
			with.Pos[lane], without.Pos[lane] = ft.Bodies.Pos[base+lane], ft.Bodies.Pos[base+lane]
			with.Skip[lane], without.Skip[lane] = -1, int32(base+lane)
		}
		if _, err := batchOracle(&w, ft, &without, theta, eps); err != nil {
			t.Fatalf("base %d, skipping the slot: %v", base, err)
		}
		if _, err := batchOracle(&w, ft, &with, theta, eps); err != nil {
			t.Fatalf("base %d, Skip = -1: %v", base, err)
		}
		for lane := 0; lane < FlatBatchWidth; lane++ {
			if with.Inter[lane] != without.Inter[lane]+1 {
				t.Fatalf("slot %d: %d interactions with Skip=-1, %d skipping the slot: want one more",
					base+lane, with.Inter[lane], without.Inter[lane])
			}
			self := -ft.Bodies.Mass[base+lane] / eps
			if d := with.Phi[lane] - without.Phi[lane]; !relClose(d, self, 1e-9) {
				t.Fatalf("slot %d: potential differs by %g, want the body's own -m/eps = %g", base+lane, d, self)
			}
		}
	}
}

// guardedWalker is a FlatWalker with guard words directly behind its
// frame stack, which the assembly kernel writes without bounds checks of
// the runtime's.
type guardedWalker struct {
	w     FlatWalker
	guard [4]uint64
}

const guardWord = 0xfeedfacecafebeef

func newGuardedWalker(t *testing.T) *guardedWalker {
	g := &guardedWalker{}
	if end := unsafe.Offsetof(g.w.frames) + unsafe.Sizeof(g.w.frames); end != unsafe.Offsetof(g.guard) {
		t.Fatalf("frames ends at byte %d of the walker but the guard words start at %d: frames must stay FlatWalker's last field", end, unsafe.Offsetof(g.guard))
	}
	for i := range g.guard {
		g.guard[i] = guardWord
	}
	return g
}

func (g *guardedWalker) check(t *testing.T) {
	t.Helper()
	for i, v := range g.guard {
		if v != guardWord {
			t.Fatalf("guard word %d behind the frame stack overwritten: %#x", i, v)
		}
	}
}

// framesUsed counts the frames a walker has ever suspended (a suspended
// frame has a non-zero mask, and nothing clears the array).
func (g *guardedWalker) framesUsed() int {
	used := 0
	for _, f := range g.w.frames {
		if f.mask != 0 {
			used++
		}
	}
	return used
}

// TestForceBatchDeepTree pins the fixed frame stack on a tree more than
// 40 levels deep: a Plummer set holding two bodies 2^-40 apart and a
// geometric ladder of bodies closing in on the root's centre from inside
// its last octant, so that every level on the way down holds the next
// cell first and a sibling to come back to, and the walk of the innermost
// bodies suspends a frame per level. Every kernel must agree (==) with
// the portable one on every body, use at least 40 frames and leave the
// words behind the stack alone.
func TestForceBatchDeepTree(t *testing.T) {
	bodies := nbody.Plummer(256, 12)
	at := func(p vec.V3) {
		bodies = append(bodies, nbody.Body{Pos: p, Mass: 1.0 / 256, ID: int32(len(bodies))})
	}
	at(bodies[17].Pos.Add(vec.V3{X: math.Ldexp(1, -40)}))
	lo, hi := nbody.BoundingBox(bodies)
	center, half := nbody.RootCell(lo, hi)
	for i := 1; i <= 44; i++ {
		d := math.Ldexp(half, -i) // inside the root cube, if not the bounding box
		at(center.Add(vec.V3{X: d, Y: d, Z: d}))
	}
	ft := &FlatTree{}
	ft.RebuildWithRoot(bodies, center, half)
	if err := ft.Verify(); err != nil {
		t.Fatal(err)
	}
	depth := 0
	for _, m := range ft.Meta {
		depth = max(depth, int(math.Round(math.Log2(ft.Half/m.Half))))
	}
	if depth < 40 || depth > flatMaxDepth {
		t.Fatalf("tree is %d levels deep, want 40..%d", depth, flatMaxDepth)
	}
	for _, theta := range []float64{0.5, 1.0} {
		want := solveWith(ft, &portableKernel, theta, 0.05)
		for _, k := range testKernels() {
			g := newGuardedWalker(t)
			for j, got := range solveOn(&g.w, ft, k, theta, 0.05) {
				if got != want[j] {
					t.Fatalf("%s theta=%g slot %d: %+v != portable %+v", k.name, theta, j, got, want[j])
				}
			}
			g.check(t)
			if used := g.framesUsed(); used < 40 {
				t.Errorf("%s theta=%g: walk suspended %d frames on a %d-level tree, want >= 40", k.name, theta, used, depth)
			}
		}
	}
}

// TestForceBatchFrameStackOverflow hands the kernels a hand-made tree
// deeper than any builder produces (every builder stops at flatMaxDepth):
// a chain of cells that no lane ever accepts, each with a leaf sibling to
// come back to. Every kernel must panic rather than write behind the
// frame stack.
func TestForceBatchFrameStackOverflow(t *testing.T) {
	const levels = flatMaxDepth + 6
	ft := &FlatTree{}
	for i := 0; i < levels; i++ {
		// Kids: the next cell first, then this level's leaf; the last
		// cell holds two leaves.
		ft.Nodes = append(ft.Nodes, FlatNode{Mass: 1, LSq: math.Inf(1), First: int32(2 * i), Count: 2})
		next := int32(i + 1)
		if i == levels-1 {
			next = FlatLeaf(int32(levels))
		}
		ft.Kids = append(ft.Kids, next, FlatLeaf(int32(i)))
	}
	for i := 0; i <= levels; i++ {
		ft.PM = append(ft.PM, PosMass{Pos: vec.V3{X: float64(i + 1)}, Mass: 1})
	}
	for _, k := range testKernels() {
		g := newGuardedWalker(t)
		var b FlatBatch
		b.N = FlatBatchWidth
		for lane := range b.Skip {
			b.Skip[lane] = -1
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: walked a %d-level tree on a %d-frame stack without panicking", k.name, levels, len(g.w.frames))
				}
			}()
			g.w.forceBatch(ft, &b, 1.0, 0.05, k)
		}()
		g.check(t)
		if used := g.framesUsed(); used != len(g.w.frames) {
			t.Errorf("%s: panicked after %d frames, want all %d used first", k.name, used, len(g.w.frames))
		}
	}
}

// TestFlatBuildDepthLimit: the pointer builder has no depth limit of its
// own, the flat tree does (flatMaxDepth, which sizes the walk's frame
// stack), so a body set whose closest pair separates deeper than that
// must make the flat build panic instead of overrunning the walk.
func TestFlatBuildDepthLimit(t *testing.T) {
	d := math.Ldexp(1, -(flatMaxDepth + 6))
	bodies := []nbody.Body{
		{Pos: vec.V3{X: 1, Y: 1, Z: 1}, Mass: 1},
		{Pos: vec.V3{X: d, Y: d, Z: d}, Mass: 1, ID: 1},
		{Pos: vec.V3{X: d / 2, Y: d / 2, Z: d / 2}, Mass: 1, ID: 2},
	}
	if err := Build(bodies).Verify(); err != nil {
		t.Fatalf("pointer tree: %v", err)
	}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "depth limit") {
			t.Errorf("the flat build of a body set deeper than flatMaxDepth raised %v, want the depth-limit panic", r)
		}
	}()
	buildFlat(bodies)
}
