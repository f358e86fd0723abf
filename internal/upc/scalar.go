package upc

// Scalar is a UPC shared scalar variable: by the language specification
// it has affinity to thread 0, so every read from another thread is a
// remote access — the §5.1 pathology. The optimized code replicates such
// values into thread-private copies instead of using Scalar reads.
//
// A Scalar carries no lock: Read and Write run under the cooperative
// scheduler, whose baton handoffs order all accesses (baseline-level
// code reads scalars per interaction, so this is a hot path), and
// Peek/Poke run while the session is paused.
type Scalar[T any] struct {
	rt *Runtime
	v  T
}

// NewScalar declares a shared scalar initialized to init.
func NewScalar[T any](rt *Runtime, init T) *Scalar[T] {
	return &Scalar[T]{rt: rt, v: init}
}

const scalarBytes = 8

// Read returns the value, charging a remote round trip to thread 0 when
// the caller is any other thread. The NIC occupancy at thread 0 makes
// frequent scalar reads a simulated hot-spot, as observed in the paper.
func (s *Scalar[T]) Read(t *Thread) T {
	if t.id == 0 {
		t.ChargeRaw(t.rt.mach.Par.GPtrDerefCost)
	} else {
		t.stats.RemoteGets++
		t.remoteRoundTrip(0, scalarBytes)
	}
	return s.v
}

// Write stores the value (remote put when not on thread 0).
func (s *Scalar[T]) Write(t *Thread, v T) {
	if t.id == 0 {
		t.ChargeRaw(t.rt.mach.Par.GPtrDerefCost)
	} else {
		t.stats.RemotePuts++
		t.remoteRoundTrip(0, scalarBytes)
	}
	s.v = v
}

// Peek reads the value without charging simulated cost. It is for the
// harness and tests, not for modelled application code.
func (s *Scalar[T]) Peek() T { return s.v }

// Poke stores the value without charging simulated cost: the restore
// path overwriting a reconstructed simulation's scalars while the
// session is paused (no thread is running, so no charge may occur).
func (s *Scalar[T]) Poke(v T) { s.v = v }
