package octree

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"upcbh/internal/nbody"
	"upcbh/internal/rng"
	"upcbh/internal/vec"
)

// intn returns a uniform integer in [0, n).
func intn(r *rng.RNG, n int) int { return int(r.Uint64() % uint64(n)) }

// totalMass sums the masses.
func totalMass(bodies []nbody.Body) float64 {
	var m float64
	for i := range bodies {
		m += bodies[i].Mass
	}
	return m
}

func TestOctantAndChildBounds(t *testing.T) {
	c := vec.V3{}
	cases := []struct {
		p    vec.V3
		want int
	}{
		{vec.V3{X: -1, Y: -1, Z: -1}, 0},
		{vec.V3{X: 1, Y: -1, Z: -1}, 1},
		{vec.V3{X: -1, Y: 1, Z: -1}, 2},
		{vec.V3{X: 1, Y: 1, Z: 1}, 7},
	}
	for _, tc := range cases {
		if got := Octant(c, tc.p); got != tc.want {
			t.Errorf("Octant(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	// Every child cube must contain exactly the points of its octant.
	for oct := 0; oct < 8; oct++ {
		cc, half := ChildBounds(c, 2, oct)
		if half != 1 {
			t.Errorf("child half = %v", half)
		}
		if Octant(c, cc) != oct {
			t.Errorf("child center of octant %d maps to octant %d", oct, Octant(c, cc))
		}
	}
}

// Property: a point is always inside the child cube its octant selects.
func TestQuickOctantContainment(t *testing.T) {
	f := func(px, py, pz float64) bool {
		norm := func(v float64) float64 { return math.Mod(math.Abs(v), 2) - 1 }
		p := vec.V3{X: norm(px), Y: norm(py), Z: norm(pz)}
		center, half := vec.V3{}, 1.0
		for level := 0; level < 8; level++ {
			if !Contains(center, half, p) {
				return false
			}
			center, half = ChildBounds(center, half, Octant(center, p))
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccept(t *testing.T) {
	pos := vec.V3{}
	cofm := vec.V3{X: 10}
	// Cell of side 2 at distance 10: l/d = 0.2.
	if !Accept(pos, cofm, 1, 0.5) {
		t.Error("distant small cell rejected at theta=0.5")
	}
	if Accept(pos, cofm, 10, 1.0) {
		t.Error("huge nearby cell accepted at theta=1.0")
	}
}

// TestAcceptDist2SharedDisplacement: the charged force walks open a cell
// on AcceptDist2 of the node-minus-body displacement they also feed the
// interaction; Accept squares body-minus-node. The two must agree on
// both sides of l^2 = theta^2 * d^2 and on the boundary itself (equality
// opens the cell), and over random geometry.
func TestAcceptDist2SharedDisplacement(t *testing.T) {
	check := func(pos, cofm vec.V3, half, theta float64) {
		t.Helper()
		if got, want := AcceptDist2(cofm.Sub(pos).Len2(), half, theta), Accept(pos, cofm, half, theta); got != want {
			t.Errorf("pos %v cofm %v half %.17g theta %g: AcceptDist2 %v, Accept %v", pos, cofm, half, theta, got, want)
		}
	}
	// d = 5 exactly, theta = 1: the boundary is half = 2.5.
	pos, cofm := vec.V3{X: 1, Y: -2, Z: 0.5}, vec.V3{X: 4, Y: 2, Z: 0.5}
	for _, half := range []float64{math.Nextafter(2.5, 0), 2.5, math.Nextafter(2.5, 3)} {
		check(pos, cofm, half, 1)
		if got, want := AcceptDist2(cofm.Sub(pos).Len2(), half, 1), half < 2.5; got != want {
			t.Errorf("half %.17g at the boundary 2.5: accepted %v, want %v", half, got, want)
		}
	}
	check(pos, pos, 1, 1) // coincident: d2 = 0 never accepts
	r := rng.New(11)
	for i := 0; i < 20000; i++ {
		p := vec.V3{X: r.Range(-8, 8), Y: r.Range(-8, 8), Z: r.Range(-8, 8)}
		c := vec.V3{X: r.Range(-8, 8), Y: r.Range(-8, 8), Z: r.Range(-8, 8)}
		half := math.Ldexp(1, intn(r, 8)-5)
		check(p, c, half, []float64{0.5, 0.8, 1}[i%3])
		// On the boundary for this pair, to rounding: half = theta*d/2.
		check(p, c, math.Sqrt(p.Dist2(c))/2, 1)
	}
}

func TestMortonOrderMatchesDFS(t *testing.T) {
	// Sorting bodies by Morton code must enumerate octree leaves in
	// depth-first order — the invariant costzones and the subspace
	// builder rely on.
	bodies := nbody.Plummer(512, 8)
	tree := Build(bodies)

	var dfsOrder []int32
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			dfsOrder = append(dfsOrder, n.Body.ID)
			return
		}
		for _, ch := range n.Child {
			if ch != nil {
				walk(ch)
			}
		}
	}
	walk(tree.Root)

	type bm struct {
		id   int32
		code uint64
	}
	codes := make([]bm, len(bodies))
	for i := range bodies {
		codes[i] = bm{bodies[i].ID, Morton(bodies[i].Pos, tree.Root.Center, tree.Root.Half)}
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i].code < codes[j].code })
	if len(dfsOrder) != len(codes) {
		t.Fatalf("leaf count %d != body count %d", len(dfsOrder), len(codes))
	}
	for i := range codes {
		if codes[i].id != dfsOrder[i] {
			t.Fatalf("Morton order diverges from DFS at position %d", i)
		}
	}
}

func TestBuildInvariants(t *testing.T) {
	bodies := nbody.Plummer(2048, 3)
	tree := Build(bodies)
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if tree.Root.N != len(bodies) {
		t.Errorf("root body count %d, want %d", tree.Root.N, len(bodies))
	}
	if math.Abs(tree.Root.Mass-totalMass(bodies)) > 1e-9 {
		t.Errorf("root mass %v, want %v", tree.Root.Mass, totalMass(bodies))
	}
	if tree.Leaf != len(bodies) {
		t.Errorf("leaf count %d, want %d", tree.Leaf, len(bodies))
	}
}

// Property: trees over random small body sets always satisfy invariants.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(seed uint16, nRaw uint8) bool {
		n := int(nRaw)%60 + 4
		bodies := nbody.Plummer(n, uint64(seed)+1)
		tree := Build(bodies)
		return tree.Verify() == nil && tree.Root.N == n
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestForceAccuracyVsDirect(t *testing.T) {
	bodies := nbody.Plummer(512, 6)
	ref := append([]nbody.Body(nil), bodies...)
	nbody.Direct(ref, 0.05)

	// Bounds are on the WORST single body (mean error is far smaller).
	for _, tc := range []struct {
		theta  float64
		maxErr float64
	}{
		{0.3, 0.03},
		{0.8, 0.25},
		{1.2, 0.60},
	} {
		cp := append([]nbody.Body(nil), bodies...)
		Solve(cp, tc.theta, 0.05)
		worst := nbody.MaxAccError(cp, ref)
		if worst > tc.maxErr {
			t.Errorf("theta=%.1f: worst acc error %.4f > %.4f", tc.theta, worst, tc.maxErr)
		}
	}
}

func TestForceErrorDecreasesWithTheta(t *testing.T) {
	bodies := nbody.Plummer(512, 12)
	ref := append([]nbody.Body(nil), bodies...)
	nbody.Direct(ref, 0.05)
	var prev float64 = -1
	for _, theta := range []float64{1.5, 1.0, 0.5, 0.25} {
		cp := append([]nbody.Body(nil), bodies...)
		Solve(cp, theta, 0.05)
		e := nbody.MaxAccError(cp, ref)
		if prev >= 0 && e > prev*1.2 { // allow slight noise
			t.Errorf("error did not shrink with theta: theta=%.2f err=%.5f prev=%.5f", theta, e, prev)
		}
		prev = e
	}
}

func TestInsertSplitsCoincidentOctants(t *testing.T) {
	// Two bodies in the same octant chain force multi-level splits.
	tree := New(vec.V3{}, 8)
	b1 := &nbody.Body{Pos: vec.V3{X: 1.0, Y: 1.0, Z: 1.0}, Mass: 1, ID: 0, Cost: 1}
	b2 := &nbody.Body{Pos: vec.V3{X: 1.1, Y: 1.1, Z: 1.1}, Mass: 1, ID: 1, Cost: 1}
	tree.Insert(b1)
	tree.Insert(b2)
	tree.ComputeCofM()
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if tree.Root.N != 2 {
		t.Errorf("root N = %d", tree.Root.N)
	}
}

func TestCofMAdditivity(t *testing.T) {
	// Property: parent cofm equals mass-weighted child aggregate, at
	// every node (checked by Verify) and at the root against the bodies.
	bodies := nbody.Plummer(1024, 14)
	tree := Build(bodies)
	var wsum vec.V3
	for i := range bodies {
		wsum = wsum.AddScaled(bodies[i].Pos, bodies[i].Mass)
	}
	want := wsum.Scale(1 / totalMass(bodies))
	if d := tree.Root.CofM.Sub(want).Len(); d > 1e-9 {
		t.Errorf("root cofm off by %v", d)
	}
}
