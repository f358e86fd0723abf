// Package octree implements the sequential Barnes-Hut octree: geometry
// helpers shared with the distributed variants (octant selection, child
// bounds, the theta acceptance test, Morton codes) plus a plain
// pointer-based tree used for local trees, reference force computation
// and invariant checking.
package octree

import (
	"fmt"
	"math"

	"upcbh/internal/nbody"
	"upcbh/internal/vec"
)

// Octant returns which of the 8 children of a cell centered at `center`
// contains point p. Bit 0 is x, bit 1 is y, bit 2 is z.
func Octant(center, p vec.V3) int {
	oct := 0
	if p.X >= center.X {
		oct |= 1
	}
	if p.Y >= center.Y {
		oct |= 2
	}
	if p.Z >= center.Z {
		oct |= 4
	}
	return oct
}

// ChildBounds returns the center and half-side of child `oct` of the cell
// (center, half).
func ChildBounds(center vec.V3, half float64, oct int) (vec.V3, float64) {
	q := half / 2
	c := center
	if oct&1 != 0 {
		c.X += q
	} else {
		c.X -= q
	}
	if oct&2 != 0 {
		c.Y += q
	} else {
		c.Y -= q
	}
	if oct&4 != 0 {
		c.Z += q
	} else {
		c.Z -= q
	}
	return c, q
}

// Accept reports whether a cell of side l = 2*half whose center of mass
// is at `cofm` is "far enough" from a body at `pos` to be used as a
// single point mass: l/d < theta, compared in squared form as SPLASH2's
// subdivp does.
func Accept(pos, cofm vec.V3, half, theta float64) bool {
	return AcceptDist2(pos.Dist2(cofm), half, theta)
}

// AcceptDist2 is Accept for a caller that already holds the squared
// body-to-cofm distance — the charged force walks, which need the same
// displacement for the interaction that follows an accepted cell.
func AcceptDist2(d2, half, theta float64) bool {
	l := 2 * half
	return l*l < theta*theta*d2
}

// Contains reports whether p lies in the half-open cube of the cell.
func Contains(center vec.V3, half float64, p vec.V3) bool {
	return p.X >= center.X-half && p.X < center.X+half &&
		p.Y >= center.Y-half && p.Y < center.Y+half &&
		p.Z >= center.Z-half && p.Z < center.Z+half
}

// Morton returns the 63-bit Morton (Z-order) code of p within the root
// cube (center, half): 21 bits per dimension, interleaved x,y,z from the
// most significant level down. Bodies sorted by Morton code enumerate
// octree leaves in depth-first order, which is what the costzones
// partitioner and the subspace leaf ordering rely on.
func Morton(p, center vec.V3, half float64) uint64 {
	norm := func(v, c float64) uint64 {
		// Map [c-half, c+half) to [0, 2^21).
		f := (v - (c - half)) / (2 * half)
		if f < 0 {
			f = 0
		}
		if f >= 1 {
			f = math.Nextafter(1, 0)
		}
		return uint64(f * (1 << 21))
	}
	return interleave3(norm(p.X, center.X), norm(p.Y, center.Y), norm(p.Z, center.Z))
}

// interleave3 interleaves the low 21 bits of x, y, z into a 63-bit code
// with x in the least significant position of each triple, matching
// Octant's bit assignment so that Morton order equals child-index order.
func interleave3(x, y, z uint64) uint64 {
	return spread(x) | spread(y)<<1 | spread(z)<<2
}

// spread spaces the low 21 bits of v three apart (magic-number dilation).
func spread(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// Node is one node of the sequential octree: either an internal cell
// (Body == nil) or a leaf holding exactly one body.
type Node struct {
	Center vec.V3
	Half   float64
	CofM   vec.V3
	Mass   float64
	Cost   float64
	N      int
	Body   *nbody.Body
	Child  [8]*Node
}

// IsLeaf reports whether the node is a single-body leaf.
func (n *Node) IsLeaf() bool { return n.Body != nil }

// Tree is a sequential Barnes-Hut octree over a root cube.
type Tree struct {
	Root  *Node
	Cells int // number of internal cells
	Leaf  int // number of body leaves
}

// New creates an empty tree with the given root cube.
func New(center vec.V3, half float64) *Tree {
	return &Tree{Root: &Node{Center: center, Half: half}, Cells: 1}
}

// Build constructs a tree over bodies with the root cube derived from
// their bounding box.
func Build(bodies []nbody.Body) *Tree {
	lo, hi := nbody.BoundingBox(bodies)
	center, half := nbody.RootCell(lo, hi)
	t := New(center, half)
	for i := range bodies {
		t.Insert(&bodies[i])
	}
	t.ComputeCofM()
	return t
}

// Insert adds one body, splitting leaves as needed. Levels reports how
// many levels were descended (the distributed variants charge per-level
// costs from it).
func (t *Tree) Insert(b *nbody.Body) (levels int) {
	n := t.Root
	for {
		levels++
		oct := Octant(n.Center, b.Pos)
		ch := n.Child[oct]
		if ch == nil {
			n.Child[oct] = &Node{Body: b}
			t.Leaf++
			return levels
		}
		if !ch.IsLeaf() {
			n = ch
			continue
		}
		// Split the leaf: replace it with a cell and reinsert both bodies.
		old := ch.Body
		cc, chalf := ChildBounds(n.Center, n.Half, oct)
		if chalf <= 0 || math.IsNaN(chalf) {
			panic("octree: cannot split further (coincident bodies?)")
		}
		cell := &Node{Center: cc, Half: chalf}
		t.Cells++
		cell.Child[Octant(cc, old.Pos)] = ch
		n.Child[oct] = cell
		n = cell
	}
}

// ComputeCofM fills Mass, CofM, Cost and N bottom-up.
func (t *Tree) ComputeCofM() { computeCofM(t.Root) }

func computeCofM(n *Node) {
	if n.IsLeaf() {
		n.Mass = n.Body.Mass
		n.CofM = n.Body.Pos
		n.Cost = n.Body.Cost
		n.N = 1
		return
	}
	var wsum vec.V3
	n.Mass, n.Cost, n.N = 0, 0, 0
	for _, ch := range n.Child {
		if ch == nil {
			continue
		}
		computeCofM(ch)
		n.Mass += ch.Mass
		n.Cost += ch.Cost
		n.N += ch.N
		wsum = wsum.AddScaled(ch.CofM, ch.Mass)
	}
	if n.Mass > 0 {
		n.CofM = wsum.Scale(1 / n.Mass)
	} else {
		n.CofM = n.Center
	}
}

// ForceOn computes the Barnes-Hut force on body b (skipping b itself),
// returning acceleration, potential, and the number of interactions.
func (t *Tree) ForceOn(b *nbody.Body, theta, eps float64) (acc vec.V3, phi float64, inter int) {
	epsSq := eps * eps
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.N == 0 && !n.IsLeaf() {
			return
		}
		if n.IsLeaf() {
			if n.Body == b {
				return
			}
			da, dp := nbody.Interact(b.Pos, n.Body.Pos, n.Body.Mass, epsSq)
			acc = acc.Add(da)
			phi += dp
			inter++
			return
		}
		if Accept(b.Pos, n.CofM, n.Half, theta) {
			da, dp := nbody.Interact(b.Pos, n.CofM, n.Mass, epsSq)
			acc = acc.Add(da)
			phi += dp
			inter++
			return
		}
		for _, ch := range n.Child {
			if ch != nil {
				walk(ch)
			}
		}
	}
	walk(t.Root)
	return acc, phi, inter
}

// Solve runs a full reference Barnes-Hut force computation over bodies,
// writing Acc, Phi and Cost (interaction counts) in place.
func Solve(bodies []nbody.Body, theta, eps float64) {
	t := Build(bodies)
	for i := range bodies {
		acc, phi, inter := t.ForceOn(&bodies[i], theta, eps)
		bodies[i].Acc = acc
		bodies[i].Phi = phi
		bodies[i].Cost = float64(inter)
	}
}

// Verify checks structural invariants and returns the first violation:
// child cubes nest correctly, every body lies in its enclosing cells,
// masses and body counts are additive, and leaves hold exactly one body.
func (t *Tree) Verify() error { return verify(t.Root, true) }

func verify(n *Node, isRoot bool) error {
	if n.IsLeaf() {
		for _, ch := range n.Child {
			if ch != nil {
				return fmt.Errorf("octree: leaf with children")
			}
		}
		return nil
	}
	var mass float64
	var count int
	var wsum vec.V3
	for oct, ch := range n.Child {
		if ch == nil {
			continue
		}
		cc, chalf := ChildBounds(n.Center, n.Half, oct)
		if !ch.IsLeaf() {
			if ch.Center != cc || ch.Half != chalf {
				return fmt.Errorf("octree: child %d bounds mismatch: got (%v,%g) want (%v,%g)",
					oct, ch.Center, ch.Half, cc, chalf)
			}
		} else if !Contains(cc, chalf, ch.Body.Pos) {
			return fmt.Errorf("octree: body %d outside its octant", ch.Body.ID)
		}
		if err := verify(ch, false); err != nil {
			return err
		}
		mass += ch.Mass
		count += ch.N
		wsum = wsum.AddScaled(ch.CofM, ch.Mass)
	}
	if n.N != count {
		return fmt.Errorf("octree: cell body count %d != children sum %d", n.N, count)
	}
	if relDiff(mass, n.Mass) > 1e-12 {
		return fmt.Errorf("octree: cell mass %g != children sum %g", n.Mass, mass)
	}
	if n.Mass > 0 {
		cofm := wsum.Scale(1 / n.Mass)
		if cofm.Sub(n.CofM).Len() > 1e-9*(1+n.CofM.Len()) {
			return fmt.Errorf("octree: cell cofm %v != children aggregate %v", n.CofM, cofm)
		}
	}
	_ = isRoot
	return nil
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}
