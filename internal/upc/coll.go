package upc

// The collectives are rendezvous of the cooperative scheduler
// (sched.exchange): every thread deposits a value, the last arriver
// combines them, and all leave with their clocks aligned to the slowest
// arrival plus the modelled cost. They exist only under ModeSimulate and
// panic on a native runtime (Runtime.sim).

// Op selects the combining operator of a reduction.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMin
	OpMax
)

func (op Op) apply(a, b float64) float64 {
	switch op {
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// AllReduceF64 is a scalar reduce&broadcast over all threads.
func AllReduceF64(t *Thread, v float64, op Op) float64 {
	s := t.rt.sim("AllReduceF64")
	t.stats.Collectives++
	cost := t.rt.mach.CollectiveCost(8)
	if t.rt.n == 1 {
		// Single-thread fast path: same charge as the rendezvous would
		// align to (max-of-one clock plus cost), no interface boxing.
		t.ChargeRaw(cost)
		return v
	}
	res, clock := s.exchange(t, v, cost, func(slots []any) any {
		acc := slots[0].(float64)
		for _, s := range slots[1:] {
			acc = op.apply(acc, s.(float64))
		}
		return acc
	})
	t.AdvanceTo(clock)
	return res.(float64)
}

// AllReduceVecF64 is the vector reduce&broadcast the paper identifies as
// critical for the subspace tree-building algorithm (§6): one collective
// combines a whole level's worth of costs. The input slice is not
// modified; all threads receive the same shared read-only result — a
// fresh allocation with multiple threads, the input slice itself at
// THREADS==1 (treat it as read-only either way).
func AllReduceVecF64(t *Thread, v []float64, op Op) []float64 {
	s := t.rt.sim("AllReduceVecF64")
	t.stats.Collectives++
	cost := t.rt.mach.CollectiveCost(8 * len(v))
	if t.rt.n == 1 {
		t.ChargeRaw(cost)
		return v
	}
	res, clock := s.exchange(t, v, cost, func(slots []any) any {
		first := slots[0].([]float64)
		acc := make([]float64, len(first))
		copy(acc, first)
		for _, s := range slots[1:] {
			sv := s.([]float64)
			if len(sv) != len(acc) {
				panic("upc: AllReduceVecF64 with mismatched lengths")
			}
			for i, x := range sv {
				acc[i] = op.apply(acc[i], x)
			}
		}
		return acc
	})
	t.AdvanceTo(clock)
	return res.([]float64)
}

// Broadcast distributes root's value to all threads.
func Broadcast[T any](t *Thread, root int, v T) T {
	s := t.rt.sim("Broadcast")
	t.stats.Collectives++
	cost := t.rt.mach.CollectiveCost(payloadBytes(v))
	if t.rt.n == 1 {
		t.ChargeRaw(cost)
		return v
	}
	res, clock := s.exchange(t, v, cost, func(slots []any) any {
		return slots[root]
	})
	t.AdvanceTo(clock)
	return res.(T)
}

// AllGather collects one value from every thread; the result is indexed
// by thread id and shared (read-only) by all threads.
func AllGather[T any](t *Thread, v T) []T {
	s := t.rt.sim("AllGather")
	t.stats.Collectives++
	cost := t.rt.mach.CollectiveCost(payloadBytes(v) * t.rt.n)
	if t.rt.n == 1 {
		t.ChargeRaw(cost)
		return []T{v}
	}
	res, clock := s.exchange(t, v, cost, func(slots []any) any {
		out := make([]T, len(slots))
		for i, s := range slots {
			out[i] = s.(T)
		}
		return out
	})
	t.AdvanceTo(clock)
	return res.([]T)
}

// AllToAll performs a personalized exchange: send[j] is delivered to
// thread j; the result's element j is what thread j sent to the caller.
// Received slices alias the sender's buffers; callers must treat them as
// read-only until the next collective, mirroring one-sided semantics.
//
// Simulated cost: a synchronization to the slowest participant plus each
// thread's own volume term (per-message overhead for its sends, transit
// for its receives).
func AllToAll[T any](t *Thread, send [][]T) [][]T {
	s := t.rt.sim("AllToAll")
	if len(send) != t.rt.n {
		panic("upc: AllToAll send matrix must have THREADS rows")
	}
	t.stats.Collectives++
	if t.rt.n == 1 {
		// Same charge as the general path degenerates to at one thread:
		// no messages, no volume, the two latency terms.
		t.ChargeRaw(2 * t.rt.mach.Par.Latency)
		return [][]T{send[0]}
	}
	res, clock := s.exchange(t, send, 0, func(slots []any) any {
		out := make([][][]T, len(slots))
		for i, s := range slots {
			out[i] = s.([][]T)
		}
		return out
	})
	t.AdvanceTo(clock)
	matrix := res.([][][]T)
	var zero T
	elem := intSizeof(zero)
	m := t.rt.mach
	recv := make([][]T, t.rt.n)
	sentBytes, recvBytes, nmsg := 0, 0, 0
	for j := 0; j < t.rt.n; j++ {
		recv[j] = matrix[j][t.id]
		if j != t.id {
			if len(send[j]) > 0 {
				sentBytes += len(send[j]) * elem
				nmsg++
			}
			recvBytes += len(recv[j]) * elem
		}
	}
	t.ChargeRaw(float64(nmsg)*m.Par.SendOverhead +
		float64(sentBytes+recvBytes)*m.Par.GapPerByte +
		2*m.Par.Latency)
	t.stats.Msgs += uint64(nmsg)
	t.stats.Bytes += uint64(sentBytes)
	return recv
}
