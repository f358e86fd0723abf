package upc

import (
	"fmt"
	"math/rand"
	"testing"

	"upcbh/internal/machine"
)

// costShapes are the machine shapes whose path classes differ: every
// pair over the network; loopback inside a node; shared memory inside a
// node.
var costShapes = []struct {
	name     string
	perNode  int
	pthreads bool
}{
	{"1pn", 1, false},
	{"4pn", 4, false},
	{"4pn-pthreads", 4, true},
}

// TestMsgCostTableMatchesModel holds the table to the model: every entry
// of every path class equals Machine.Message for a thread pair of that
// class, field for field; every thread pair is classified as
// Machine.Path classifies it; sizes outside the table take the model
// call and charge the same clock.
func TestMsgCostTableMatchesModel(t *testing.T) {
	const threads = 16
	for _, sh := range costShapes {
		t.Run(sh.name, func(t *testing.T) {
			m := machine.MustNew(threads, sh.perNode, sh.pthreads, machine.Power5())
			rt := NewRuntime(m)

			classes := 0
			for kind, tab := range rt.msgCosts {
				if tab == nil {
					continue
				}
				classes++
				if len(tab) != msgTableBytes {
					t.Fatalf("class %d: table holds %d sizes, want %d", kind, len(tab), msgTableBytes)
				}
			}
			if want := map[int]int{1: 2, 4: 3}[sh.perNode]; classes != want {
				t.Errorf("%d path classes tabulated, want %d", classes, want)
			}

			sizes := make([]int, 0, msgTableBytes+4)
			for b := 0; b < msgTableBytes; b++ {
				sizes = append(sizes, b)
			}
			sizes = append(sizes, msgTableBytes, msgTableBytes+1, 4096, -1, -40)
			for a := 0; a < threads; a++ {
				for b := 0; b < threads; b++ {
					tab := rt.msgCosts[m.Path(a, b)]
					if tab == nil {
						t.Fatalf("pair (%d,%d): path class %d has no table", a, b, m.Path(a, b))
					}
					for _, bytes := range sizes {
						want := m.Message(a, b, bytes)
						if got := rt.threads[a].msgCost(b, bytes); got != want {
							t.Fatalf("msgCost(%d->%d, %dB) = %+v, model says %+v", a, b, bytes, got, want)
						}
						if bytes >= 0 && bytes < msgTableBytes && tab[bytes] != want {
							t.Fatalf("table[%d][%d] = %+v, model says %+v", m.Path(a, b), bytes, tab[bytes], want)
						}
					}
				}
			}
			if got, want := rt.threads[0].msgCost(threads-1, -40), m.Message(0, threads-1, 0); got != want {
				t.Errorf("negative size: %+v, want the zero-byte cost %+v", got, want)
			}

			// One size past the bound charges the clock the model charges.
			for _, bytes := range []int{msgTableBytes - 1, msgTableBytes, msgTableBytes + 1} {
				rt.ResetClocks()
				th := rt.threads[1]
				th.remoteRoundTrip(threads-1, bytes)
				mc := m.Message(1, threads-1, bytes)
				if want := (0 + mc.SenderBusy + mc.Transit) + mc.Transit; th.Now() != want {
					t.Errorf("%dB round trip leaves the clock at %.17g, want %.17g", bytes, th.Now(), want)
				}
			}
		})
	}

	for _, tab := range NewRuntimeMode(machine.Default(4), ModeNative).msgCosts {
		if tab != nil {
			t.Error("native runtime built a message-cost table")
		}
	}
}

// refModel is the accounting of a scripted access mix written with
// direct model calls — Machine.Message per access, no table — against
// which TestRemoteChargeSequence holds the runtime's clocks and NICs.
type refModel struct {
	m     *machine.Machine
	clock []float64
	nic   []float64
	lock  []float64 // availAt per lock
}

func (r *refModel) reserve(target int, arrive, busy float64) float64 {
	start := r.nic[target]
	if arrive > start {
		start = arrive
	}
	r.nic[target] = start + busy
	return start
}

func (r *refModel) access(a, b, bytes int) {
	if a == b {
		r.clock[a] += r.m.Par.GPtrDerefCost
		return
	}
	mc := r.m.Message(a, b, bytes)
	arrive := r.clock[a] + mc.SenderBusy + mc.Transit
	r.clock[a] = r.reserve(b, arrive, mc.TargetBusy) + mc.Transit
}

func (r *refModel) gather(a int, groups [][2]int) {
	complete := r.clock[a]
	for _, g := range groups {
		src, bytes := g[0], g[1]
		var done float64
		if src == a {
			r.clock[a] += float64(bytes) * r.m.Par.ByteCopyCost
			done = r.clock[a]
		} else {
			mc := r.m.Message(a, src, bytes)
			r.clock[a] += mc.SenderBusy
			done = r.reserve(src, r.clock[a]+mc.Transit, mc.TargetBusy) + mc.Transit
		}
		if done > complete {
			complete = done
		}
	}
	if complete > r.clock[a] {
		r.clock[a] = complete
	}
}

func (r *refModel) lockPair(a, home, l int) {
	mc := r.m.Message(a, home, lockMsgBytes)
	req := r.clock[a] + mc.SenderBusy + mc.Transit
	if r.lock[l] > req {
		req = r.lock[l]
	}
	r.clock[a] = req + r.m.Par.LockOverhead + mc.Transit
	r.lock[l] = r.clock[a] + mc.SenderBusy + mc.Transit + r.m.Par.LockOverhead
	r.clock[a] += mc.SenderBusy
}

// TestRemoteChargeSequence runs a scripted mix of gets, puts, scalar
// reads and writes, blocking gathers and lock pairs — the wire sizes the
// engine uses, plus sizes past the table — on every thread, and demands
// that every thread clock and every NIC end exactly (==) where the
// direct-model reference puts them. No thread reaches a sync point, so
// the cooperative scheduler runs thread 0's script to the end, then
// thread 1's, …: the reference replays them in that order, and the NICs
// and lock release times carry one thread's charges into the next's.
func TestRemoteChargeSequence(t *testing.T) {
	type elem [19]float64 // 152 bytes, one cell
	sizes := []int{8, 16, 24, 32, 40, 56, 104, 152}
	run := func(t *testing.T, m *machine.Machine) {
		p := m.Threads
		rt := NewRuntime(m)
		h := NewHeap[elem](rt, 1024)
		sc := NewScalar(rt, 1.5)
		locks := make([]*Lock, p+1)
		for i := range locks {
			locks[i] = rt.NewLock(i)
		}
		ref := &refModel{m: m, clock: make([]float64, p), nic: make([]float64, p), lock: make([]float64, len(locks))}

		// Setup in one Run (allocation is free), the script in a second:
		// with no barrier inside it, it has no sync point.
		const perThread = 8
		rt.Run(func(th *Thread) { h.Alloc(th, perThread) })
		rt.Run(func(th *Thread) {
			a := th.ID()
			rng := rand.New(rand.NewSource(int64(1000*p + a)))
			dst := make([]elem, 12)
			for op := 0; op < 400; op++ {
				b := rng.Intn(p)
				r := Ref{Thr: int32(b), Idx: int32(rng.Intn(perThread))}
				bytes := sizes[rng.Intn(len(sizes))]
				switch rng.Intn(7) {
				case 0:
					h.ReadView(th, r, bytes)
					ref.access(a, b, bytes)
				case 1:
					h.GetBytes(th, r, bytes)
					ref.access(a, b, bytes)
				case 2:
					h.PutBytes(th, r, bytes, func(*elem) {})
					ref.access(a, b, bytes)
				case 3:
					sc.Read(th)
					ref.access(a, 0, scalarBytes)
				case 4:
					sc.Write(th, 1.5)
					ref.access(a, 0, scalarBytes)
				case 5:
					// 1..12 cells from random owners: groups of several
					// cells exceed the table and take the model call.
					refs := make([]Ref, 1+rng.Intn(len(dst)))
					var groups [][2]int
					for i := range refs {
						src := rng.Intn(p)
						if rng.Intn(3) == 0 && i > 0 {
							src = int(refs[i-1].Thr)
						}
						refs[i] = Ref{Thr: int32(src), Idx: int32(rng.Intn(perThread))}
						found := false
						for gi := range groups {
							if groups[gi][0] == src {
								groups[gi][1] += 152
								found = true
								break
							}
						}
						if !found {
							groups = append(groups, [2]int{src, 152})
						}
					}
					h.Gather(th, refs, dst)
					ref.gather(a, groups)
				case 6:
					l := rng.Intn(len(locks))
					locks[l].Acquire(th)
					locks[l].Release(th)
					ref.lockPair(a, l%p, l)
				}
			}
		})

		for i := 0; i < p; i++ {
			if got := rt.ThreadNow(i); got != ref.clock[i] {
				t.Errorf("thread %d clock %.17g, direct model calls give %.17g", i, got, ref.clock[i])
			}
			if got := rt.nic[i].availAt; got != ref.nic[i] {
				t.Errorf("NIC %d free at %.17g, direct model calls give %.17g", i, got, ref.nic[i])
			}
		}
		for l, lk := range locks {
			if lk.availAt != ref.lock[l] {
				t.Errorf("lock %d free at %.17g, direct model calls give %.17g", l, lk.availAt, ref.lock[l])
			}
		}
	}

	for _, p := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) { run(t, machine.Default(p)) })
	}
	for _, sh := range costShapes[1:] {
		t.Run("p=16/"+sh.name, func(t *testing.T) {
			run(t, machine.MustNew(16, sh.perNode, sh.pthreads, machine.Power5()))
		})
	}
}
