// Package machine models the parallel machine the paper ran on: a cluster
// of SMP nodes connected by an rDMA-capable network, programmed either with
// one process per node or with the Berkeley UPC -pthreads threaded runtime.
//
// The model is LogGP-flavoured. Every UPC thread has a simulated clock
// (owned by internal/upc); this package only computes costs:
//
//   - local computation is charged from explicit operation counts
//     (interactions, tree levels, bytes copied) times calibrated per-op
//     costs, optionally inflated by the threaded-runtime CPU factor;
//   - a remote message costs the sender o (send overhead), takes L + n*G
//     on the wire, and occupies the target NIC for g + n*G, which is how
//     hot-spots (shared scalars on thread 0, contended tree merges)
//     serialize in simulated time;
//   - message parameters depend on the pair topology: same thread, same
//     node under -pthreads (shared memory), same node across processes
//     (loopback; pathological on the paper's AIX/LAPI stack), or cross
//     node (network).
//
// The Power5 preset is calibrated against the paper's absolute
// single-thread numbers and its reported remote-access magnitudes; see
// DESIGN.md §3 for the calibration notes.
package machine

import (
	"errors"
	"fmt"
	"math"
)

// Params holds the cost-model constants. All times are in seconds.
type Params struct {
	// Computation.
	InteractionCost float64 `json:"interaction_cost"` // one body/cell gravity interaction (flops incl. sqrt)
	BodyUpdateCost  float64 `json:"body_update_cost"` // one leapfrog position/velocity update
	TreeLevelCost   float64 `json:"tree_level_cost"`  // descending one level during insertion
	CellInitCost    float64 `json:"cell_init_cost"`   // creating/initializing one cell
	ByteCopyCost    float64 `json:"byte_copy_cost"`   // memcpy, per byte (local buffer copies, cell caching)
	GPtrDerefCost   float64 `json:"gptr_deref_cost"`  // extra cost of dereferencing a pointer-to-shared that is local
	LocalDerefCost  float64 `json:"local_deref_cost"` // plain C pointer dereference

	// Network (cross-node).
	SendOverhead float64 `json:"send_overhead"` // o: CPU time on the sender per message
	Latency      float64 `json:"latency"`       // L: wire latency
	GapPerByte   float64 `json:"gap_per_byte"`  // G: 1/bandwidth
	GapPerMsg    float64 `json:"gap_per_msg"`   // g: NIC occupancy per message at the target

	// Intra-node shared memory (threads of one process, -pthreads).
	SmemOverhead   float64 `json:"smem_overhead"`     // per-access overhead through the shared segment
	SmemGapPerByte float64 `json:"smem_gap_per_byte"` // 1/memcpy bandwidth

	// Intra-node across processes (no -pthreads, >1 process per node).
	// The paper observed this to be catastrophically slow on AIX/LAPI
	// (36000s vs 26s for 16 ranks on one node), so the loopback path
	// carries a large per-message overhead.
	LoopbackOverhead float64 `json:"loopback_overhead"`
	LoopbackPerByte  float64 `json:"loopback_per_byte"`

	// Synchronization.
	LockOverhead  float64 `json:"lock_overhead"`   // acquiring/releasing a upc_lock, on top of messaging
	BarrierPerHop float64 `json:"barrier_per_hop"` // cost per log2(P) combining step

	// PthreadCPUFactor inflates computation cost when the threaded runtime
	// is used (GASNet polling interference; the paper measured processes
	// ~1.4-2x faster than pthreads at equal thread counts).
	PthreadCPUFactor float64 `json:"pthread_cpu_factor"`
}

// Power5 returns parameters calibrated to the paper's IBM Power5/LAPI
// cluster. Calibration anchors:
//
//   - 2M bodies, 1 thread, optimized force computation ~136 s per two
//     time-steps => ~350 ns per interaction at ~190 interactions/body.
//   - baseline 1-thread force computation ~190 s: the extra ~40 ns per
//     shared-pointer dereference (3-4 derefs per interaction) matches the
//     ~25% gain the paper reports from global->local pointer casting.
//   - LAPI small-message round trip ~30 us; ~0.5 GB/s effective bandwidth.
func Power5() Params {
	return Params{
		InteractionCost: 350e-9,
		BodyUpdateCost:  75e-9,
		TreeLevelCost:   120e-9,
		CellInitCost:    400e-9,
		ByteCopyCost:    0.25e-9,
		GPtrDerefCost:   40e-9,
		LocalDerefCost:  1e-9,

		SendOverhead: 3e-6,
		Latency:      12e-6,
		GapPerByte:   2e-9, // 0.5 GB/s
		GapPerMsg:    1.5e-6,

		SmemOverhead:   120e-9,
		SmemGapPerByte: 0.4e-9,

		LoopbackOverhead: 300e-6,
		LoopbackPerByte:  4e-9,

		LockOverhead:  2e-6,
		BarrierPerHop: 15e-6,

		PthreadCPUFactor: 1.9,
	}
}

// Validate reports an error if any parameter is non-positive where a
// positive value is required.
func (p Params) Validate() error {
	pos := map[string]float64{
		"InteractionCost":  p.InteractionCost,
		"SendOverhead":     p.SendOverhead,
		"Latency":          p.Latency,
		"GapPerByte":       p.GapPerByte,
		"GapPerMsg":        p.GapPerMsg,
		"BarrierPerHop":    p.BarrierPerHop,
		"PthreadCPUFactor": p.PthreadCPUFactor,
	}
	for name, v := range pos {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("machine: parameter %s must be positive, got %g", name, v)
		}
	}
	return nil
}

// PathKind classifies the communication path between two UPC threads.
type PathKind int

const (
	// PathSelf is an access by a thread to its own shard.
	PathSelf PathKind = iota
	// PathSmem is a same-node access under the -pthreads runtime.
	PathSmem
	// PathLoopback is a same-node access between distinct processes.
	PathLoopback
	// PathNetwork is a cross-node access.
	PathNetwork
)

// Machine describes one experiment configuration: how many UPC threads run,
// how they are packed onto nodes, and whether the threaded (-pthreads)
// runtime is used for same-node threads.
type Machine struct {
	Threads        int    `json:"threads"`
	ThreadsPerNode int    `json:"threads_per_node"`
	Pthreads       bool   `json:"pthreads"` // true: one process/node with pthreads; false: one process per thread
	Par            Params `json:"params"`
}

// Key returns a canonical string identifying the machine configuration,
// including every cost-model constant: two Machines with equal keys cost
// identical simulated programs identically. Used by the experiment
// harness to memoize runs.
func (m *Machine) Key() string {
	if m == nil {
		return "mach{nil}"
	}
	return fmt.Sprintf("mach{t=%d,pn=%d,pth=%t,par=%.17g}", m.Threads, m.ThreadsPerNode, m.Pthreads,
		[]float64{
			m.Par.InteractionCost, m.Par.BodyUpdateCost, m.Par.TreeLevelCost, m.Par.CellInitCost,
			m.Par.ByteCopyCost, m.Par.GPtrDerefCost, m.Par.LocalDerefCost,
			m.Par.SendOverhead, m.Par.Latency, m.Par.GapPerByte, m.Par.GapPerMsg,
			m.Par.SmemOverhead, m.Par.SmemGapPerByte,
			m.Par.LoopbackOverhead, m.Par.LoopbackPerByte,
			m.Par.LockOverhead, m.Par.BarrierPerHop, m.Par.PthreadCPUFactor,
		})
}

// New builds a Machine. threadsPerNode <= 0 means one thread per node.
func New(threads, threadsPerNode int, pthreads bool, par Params) (*Machine, error) {
	if threads <= 0 {
		return nil, errors.New("machine: need at least one thread")
	}
	if threadsPerNode <= 0 {
		threadsPerNode = 1
	}
	if err := par.Validate(); err != nil {
		return nil, err
	}
	return &Machine{Threads: threads, ThreadsPerNode: threadsPerNode, Pthreads: pthreads, Par: par}, nil
}

// MustNew is New but panics on error; for tests and presets.
func MustNew(threads, threadsPerNode int, pthreads bool, par Params) *Machine {
	m, err := New(threads, threadsPerNode, pthreads, par)
	if err != nil {
		panic(err)
	}
	return m
}

// Default returns the configuration used by most paper experiments in
// sections 4-5: one process per node, i.e. every thread on its own node.
func Default(threads int) *Machine {
	return MustNew(threads, 1, false, Power5())
}

// Node returns the node that thread t occupies.
func (m *Machine) Node(t int) int { return t / m.ThreadsPerNode }

// NumNodes returns the number of occupied nodes.
func (m *Machine) NumNodes() int {
	return (m.Threads + m.ThreadsPerNode - 1) / m.ThreadsPerNode
}

// Path classifies the communication path from thread a to thread b.
func (m *Machine) Path(a, b int) PathKind {
	if a == b {
		return PathSelf
	}
	// One thread per node — the common configuration — needs no node
	// arithmetic: every distinct pair crosses the network. Message runs
	// per modelled remote access, so the two integer divisions matter.
	if m.ThreadsPerNode == 1 {
		return PathNetwork
	}
	switch {
	case m.Node(a) != m.Node(b):
		return PathNetwork
	case m.Pthreads:
		return PathSmem
	default:
		return PathLoopback
	}
}

// Compute inflates a raw computation cost by the threaded-runtime factor.
// The paper observed the -pthreads build to be slower than processes even
// at one thread per node (Table 8 vs 9), so the factor applies whenever
// the threaded runtime is used.
func (m *Machine) Compute(sec float64) float64 {
	if m.Pthreads {
		return sec * m.Par.PthreadCPUFactor
	}
	return sec
}

// MsgCost describes the simulated cost of one one-sided message.
type MsgCost struct {
	SenderBusy float64 // CPU time charged to the sender before it can continue (blocking ops also wait for Transit)
	Transit    float64 // time from send to data availability, excluding queueing at the target
	TargetBusy float64 // NIC occupancy at the target (serializes hot-spots)
}

// Message returns the cost of sending `bytes` from thread a to thread b.
// The simulate runtime tabulates it per path class and small byte count
// (internal/upc/msgcost.go), so it runs at construction and for large
// aggregated messages, not once per modelled access.
func (m *Machine) Message(a, b, bytes int) MsgCost {
	if bytes < 0 {
		bytes = 0
	}
	fb := float64(bytes)
	switch m.Path(a, b) {
	case PathSelf:
		// A "message" to self degenerates to a memcpy.
		return MsgCost{SenderBusy: fb * m.Par.ByteCopyCost}
	case PathSmem:
		return MsgCost{
			SenderBusy: m.Par.SmemOverhead,
			Transit:    m.Par.SmemOverhead + fb*m.Par.SmemGapPerByte,
			TargetBusy: 0, // shared-memory copy does not involve a NIC
		}
	case PathLoopback:
		return MsgCost{
			SenderBusy: m.Par.LoopbackOverhead,
			Transit:    m.Par.LoopbackOverhead + fb*m.Par.LoopbackPerByte,
			TargetBusy: m.Par.LoopbackOverhead + fb*m.Par.LoopbackPerByte,
		}
	default: // PathNetwork
		return MsgCost{
			SenderBusy: m.Par.SendOverhead,
			Transit:    m.Par.Latency + fb*m.Par.GapPerByte,
			TargetBusy: m.Par.GapPerMsg + fb*m.Par.GapPerByte,
		}
	}
}

// BarrierCost returns the simulated cost of one barrier across all threads:
// a combining tree over nodes plus a cheap intra-node phase.
func (m *Machine) BarrierCost() float64 {
	nodes := m.NumNodes()
	c := m.Par.BarrierPerHop * log2ceil(nodes)
	if m.ThreadsPerNode > 1 {
		intra := m.Par.SmemOverhead
		if !m.Pthreads {
			intra = m.Par.LoopbackOverhead
		}
		c += intra * log2ceil(m.ThreadsPerNode)
	}
	return c
}

// CollectiveCost returns the simulated cost of one reduce&broadcast (or
// broadcast) collective carrying `bytes` per hop.
func (m *Machine) CollectiveCost(bytes int) float64 {
	hop := m.Par.SendOverhead + m.Par.Latency + float64(bytes)*m.Par.GapPerByte
	return hop * log2ceil(m.NumNodes()) * 2 // reduce then broadcast
}

func log2ceil(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Ceil(math.Log2(float64(n)))
}
