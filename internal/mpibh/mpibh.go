// Package mpibh is a message-passing Barnes-Hut implementation — the
// comparison code the paper's §9 plans ("We plan, in future work, to
// directly compare the performance of this code to the performance of a
// similar code expressed in MPI"). It follows the classic distributed
// design of Salmon/Warren rather than the PGAS formulation:
//
//  1. bodies are kept sorted by Morton code and repartitioned by sample
//     sort into contiguous, cost-balanced key ranges (the Warren-Salmon
//     partitioning the paper's §8 discusses);
//  2. each rank builds a sequential local octree over its bodies;
//  3. ranks exchange locally essential tree (LET) data: for every other
//     rank, the parts of the local tree that rank could need — cells
//     that are "far enough" from the whole remote domain travel as
//     single pseudo-particles, near cells are opened recursively;
//  4. forces are computed entirely locally on the union tree.
//
// It runs on the same emulated machine (and simulated clocks) as the UPC
// code, so totals are directly comparable (the ext-mpi experiment).
package mpibh

import (
	"fmt"
	"math"
	"sort"

	"upcbh/internal/machine"
	"upcbh/internal/nbody"
	"upcbh/internal/octree"
	"upcbh/internal/upc"
	"upcbh/internal/vec"
)

// Phase identifies one phase of an MPI time-step.
type Phase int

// The phases of the MPI formulation.
const (
	PhaseSort  Phase = iota // Morton sort + sample-sort repartition
	PhaseTree               // local octree construction
	PhaseLET                // locally-essential-tree exchange
	PhaseForce              // local force computation
	PhaseAdv                // body advancing
	NumPhases
)

// Options configures one MPI Barnes-Hut run.
type Options struct {
	Bodies int
	Ranks  int
	Steps  int
	Warmup int

	Theta, Eps, Dt float64
	Seed           uint64

	Machine *machine.Machine
}

// Result reports simulated phase times (max over ranks per measured
// step, summed) and the final body state in ID order.
type Result struct {
	Phases [NumPhases]float64
	Total  float64
	Bodies []nbody.Body
}

// pseudo is one LET entry: a point mass standing in for a remote body or
// a whole remote subtree.
type pseudo struct {
	Pos  vec.V3
	Mass float64
}

// box is an axis-aligned bounding box.
type box struct{ Lo, Hi vec.V3 }

// minDist2 returns the squared distance from p to the box (0 inside).
func (b box) minDist2(p vec.V3) float64 {
	clamp := func(v, lo, hi float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	q := vec.V3{
		X: clamp(p.X, b.Lo.X, b.Hi.X),
		Y: clamp(p.Y, b.Lo.Y, b.Hi.Y),
		Z: clamp(p.Z, b.Lo.Z, b.Hi.Z),
	}
	return q.Sub(p).Len2()
}

// Run executes the MPI Barnes-Hut simulation.
func Run(o Options) (*Result, error) {
	if o.Bodies < 2 {
		return nil, fmt.Errorf("mpibh: need at least 2 bodies")
	}
	if o.Ranks < 1 {
		return nil, fmt.Errorf("mpibh: need at least 1 rank")
	}
	if o.Steps <= o.Warmup {
		return nil, fmt.Errorf("mpibh: Steps (%d) must exceed Warmup (%d)", o.Steps, o.Warmup)
	}
	if o.Theta <= 0 {
		return nil, fmt.Errorf("mpibh: Theta must be positive")
	}
	m := o.Machine
	if m == nil {
		m = machine.Default(o.Ranks)
	}
	rt := upc.NewRuntime(m)
	init := nbody.Plummer(o.Bodies, o.Seed)

	type rstate struct {
		bodies []nbody.Body
		phases [NumPhases]float64
	}
	states := make([]*rstate, o.Ranks)
	for r := range states {
		lo, hi := r*o.Bodies/o.Ranks, (r+1)*o.Bodies/o.Ranks
		states[r] = &rstate{bodies: append([]nbody.Body(nil), init[lo:hi]...)}
	}

	rt.Run(func(t *upc.Thread) {
		st := states[t.ID()]
		par := m.Par
		for step := 0; step < o.Steps; step++ {
			measured := step >= o.Warmup
			var ph [NumPhases]float64
			mark := func(p Phase, t0 float64) {
				ph[p] += t.Now() - t0
				t.Barrier()
			}

			// --- global cube --------------------------------------------
			t0 := t.Now()
			lo := vec.V3{X: inf, Y: inf, Z: inf}
			hi := lo.Scale(-1)
			for i := range st.bodies {
				lo = lo.Min(st.bodies[i].Pos)
				hi = hi.Max(st.bodies[i].Pos)
				t.Charge(par.LocalDerefCost)
			}
			mins := upc.AllReduceVecF64(t, []float64{lo.X, lo.Y, lo.Z}, upc.OpMin)
			maxs := upc.AllReduceVecF64(t, []float64{hi.X, hi.Y, hi.Z}, upc.OpMax)
			center, half := nbody.RootCell(
				vec.V3{X: mins[0], Y: mins[1], Z: mins[2]},
				vec.V3{X: maxs[0], Y: maxs[1], Z: maxs[2]})

			// --- Morton sample sort -------------------------------------
			st.bodies = sampleSort(t, st.bodies, center, half, par)
			mark(PhaseSort, t0)

			// --- local tree ---------------------------------------------
			t0 = t.Now()
			tree := octree.New(center, half)
			for i := range st.bodies {
				levels := tree.Insert(&st.bodies[i])
				t.Charge(float64(levels) * par.TreeLevelCost)
			}
			tree.ComputeCofM()
			t.Charge(float64(tree.Cells) * 8 * par.TreeLevelCost)
			mark(PhaseTree, t0)

			// --- LET exchange -------------------------------------------
			t0 = t.Now()
			boxes := upc.AllGather(t, box{Lo: lo, Hi: hi})
			send := make([][]pseudo, t.P())
			for r := 0; r < t.P(); r++ {
				if r == t.ID() || len(st.bodies) == 0 {
					continue
				}
				send[r] = collectLET(t, tree.Root, boxes[r], o.Theta, par, send[r])
			}
			recv := upc.AllToAll(t, send, nil)
			let := octree.New(center, half)
			fars := make([]nbody.Body, 0, 1024)
			for r, ps := range recv {
				if r == t.ID() {
					continue
				}
				for _, pb := range ps {
					fars = append(fars, nbody.Body{Pos: pb.Pos, Mass: pb.Mass, ID: -1})
				}
			}
			for i := range st.bodies {
				levels := let.Insert(&st.bodies[i])
				t.Charge(float64(levels) * par.TreeLevelCost)
			}
			for i := range fars {
				levels := let.Insert(&fars[i])
				t.Charge(float64(levels) * par.TreeLevelCost)
			}
			let.ComputeCofM()
			t.Charge(float64(let.Cells) * 8 * par.TreeLevelCost)
			mark(PhaseLET, t0)

			// --- force --------------------------------------------------
			t0 = t.Now()
			for i := range st.bodies {
				acc, phi, inter := let.ForceOn(&st.bodies[i], o.Theta, o.Eps)
				st.bodies[i].Acc = acc
				st.bodies[i].Phi = phi
				st.bodies[i].Cost = float64(inter)
				t.Charge(float64(inter) * par.InteractionCost)
			}
			mark(PhaseForce, t0)

			// --- advance ------------------------------------------------
			t0 = t.Now()
			for i := range st.bodies {
				nbody.AdvanceKickDrift(&st.bodies[i], o.Dt)
				t.Charge(par.BodyUpdateCost)
			}
			mark(PhaseAdv, t0)

			if measured {
				for p := range ph {
					st.phases[p] += ph[p]
				}
			}
		}
	})

	res := &Result{}
	for _, st := range states {
		for p := range st.phases {
			if st.phases[p] > res.Phases[p] {
				res.Phases[p] = st.phases[p]
			}
		}
		res.Bodies = append(res.Bodies, st.bodies...)
	}
	for _, v := range res.Phases {
		res.Total += v
	}
	if len(res.Bodies) != o.Bodies {
		return nil, fmt.Errorf("mpibh: ranks hold %d bodies, want %d", len(res.Bodies), o.Bodies)
	}
	sort.Slice(res.Bodies, func(i, j int) bool { return res.Bodies[i].ID < res.Bodies[j].ID })
	for i := 1; i < len(res.Bodies); i++ {
		if res.Bodies[i].ID == res.Bodies[i-1].ID {
			return nil, fmt.Errorf("mpibh: body %d held by two ranks", res.Bodies[i].ID)
		}
	}
	return res, nil
}

var inf = math.Inf(1)

// collectLET appends to out the pseudo-particles of the local tree that
// the remote domain `dom` needs: cells far enough from every point of
// the domain travel as one point mass; near cells are opened; leaves
// travel as bodies. This is Salmon's locally essential tree criterion
// with the conservative minimum-distance test.
func collectLET(t *upc.Thread, n *octree.Node, dom box, theta float64, par machine.Params, out []pseudo) []pseudo {
	if n == nil {
		return out
	}
	t.Charge(par.TreeLevelCost)
	if n.IsLeaf() {
		return append(out, pseudo{Pos: n.Body.Pos, Mass: n.Body.Mass})
	}
	if n.Mass == 0 {
		return out
	}
	l := 2 * n.Half
	d2 := dom.minDist2(n.CofM)
	if l*l < theta*theta*d2 {
		// Far enough from everywhere in the domain: one point mass.
		return append(out, pseudo{Pos: n.CofM, Mass: n.Mass})
	}
	for _, ch := range n.Child {
		if ch != nil {
			out = collectLET(t, ch, dom, theta, par, out)
		}
	}
	return out
}

// sampleSort repartitions bodies into contiguous Morton-key ranges of
// roughly equal cost using regular sampling: each rank contributes P
// evenly spaced samples, every rank picks identical splitters from the
// gathered sample set, and an all-to-all delivers each body to its
// target rank.
func sampleSort(t *upc.Thread, bodies []nbody.Body, center vec.V3, half float64, par machine.Params) []nbody.Body {
	p := t.P()
	type keyed struct {
		key  uint64
		body nbody.Body
	}
	ks := make([]keyed, len(bodies))
	for i := range bodies {
		ks[i] = keyed{octree.Morton(bodies[i].Pos, center, half), bodies[i]}
		t.Charge(par.BodyUpdateCost)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	t.Charge(float64(len(ks)) * 4 * par.LocalDerefCost * 20) // n log n sort work

	if p == 1 {
		out := make([]nbody.Body, len(ks))
		for i := range ks {
			out[i] = ks[i].body
		}
		return out
	}

	// P samples per rank (pad with max key when short of bodies).
	samples := make([]float64, p)
	for i := 0; i < p; i++ {
		if len(ks) > 0 {
			samples[i] = float64(ks[i*len(ks)/p].key)
		} else {
			samples[i] = float64(^uint64(0) >> 1)
		}
	}
	all := upc.AllGather(t, samples)
	flat := make([]float64, 0, p*p)
	for _, s := range all {
		flat = append(flat, s...)
	}
	sort.Float64s(flat)
	splitters := make([]uint64, p-1)
	for i := 1; i < p; i++ {
		splitters[i-1] = uint64(flat[i*len(flat)/p])
	}

	send := make([][]nbody.Body, p)
	for _, k := range ks {
		dst := sort.Search(len(splitters), func(i int) bool { return splitters[i] > k.key })
		send[dst] = append(send[dst], k.body)
		t.Charge(par.LocalDerefCost * 4)
	}
	recv := upc.AllToAll(t, send, nil)
	out := make([]nbody.Body, 0, len(bodies))
	for _, r := range recv {
		out = append(out, r...)
	}
	// Keep the merged list Morton-sorted for locality.
	sort.Slice(out, func(i, j int) bool {
		return octree.Morton(out[i].Pos, center, half) < octree.Morton(out[j].Pos, center, half)
	})
	t.Charge(float64(len(out)) * 4 * par.LocalDerefCost * 20)
	return out
}
