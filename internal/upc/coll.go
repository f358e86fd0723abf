package upc

import "unsafe"

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
	t.red1[0] = v
	return allReduce(t, "AllReduceF64", t.red1[:], op)[0]
}

// AllReduceVecF64 is the vector reduce&broadcast the paper identifies as
// critical for the subspace tree-building algorithm (§6): one collective
// combines a whole level's worth of costs. It reduces in place, as
// MPI_Allreduce with MPI_IN_PLACE does: on return every thread's v holds
// the elementwise result, and v is returned. Nothing is allocated.
func AllReduceVecF64(t *Thread, v []float64, op Op) []float64 {
	return allReduce(t, "AllReduceVecF64", v, op)
}

func allReduce(t *Thread, name string, v []float64, op Op) []float64 {
	s := t.rt.sim(name)
	t.stats.Collectives++
	cost := t.rt.mach.CollectiveCost(8 * len(v))
	if t.rt.n == 1 {
		// Single-thread fast path: same charge as the rendezvous would
		// align to (max-of-one clock plus cost).
		t.ChargeRaw(cost)
		return v
	}
	t.red = v
	_, clock := s.exchange(t, nil, cost, func([]any) any {
		s.reduce(op)
		return nil
	})
	t.AdvanceTo(clock)
	return v
}

// reduce is the resolver's half of allReduce: every thread is parked in
// the epoch with its deposit in Thread.red, so the resolver folds them in
// thread order into a retained accumulator and writes the result back
// into each.
func (s *sched) reduce(op Op) {
	ths := s.rt.threads
	acc := append(s.redAcc[:0], ths[0].red...)
	for _, th := range ths[1:] {
		if len(th.red) != len(acc) {
			panic("upc: AllReduceVecF64 with mismatched lengths")
		}
		for i, x := range th.red {
			acc[i] = op.apply(acc[i], x)
		}
	}
	for _, th := range ths {
		copy(th.red, acc)
		th.red = nil
	}
	s.redAcc = acc
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
	// Only the root's value travels, so only the root boxes it: at most
	// one allocation per broadcast, none for a pointer-shaped T.
	var dep any
	if t.id == root {
		dep = v
	}
	res, clock := s.exchange(t, dep, cost, func(slots []any) any {
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
// The result is recv resliced to THREADS rows, or a fresh matrix if recv
// is shorter: pass a retained buffer and steady-state exchanges allocate
// nothing. Received rows alias the sender's buffers; callers must treat
// them as read-only until the next collective, mirroring one-sided
// semantics.
//
// Simulated cost: a synchronization to the slowest participant plus each
// thread's own volume term (per-message overhead for its sends, transit
// for its receives).
func AllToAll[T any](t *Thread, send, recv [][]T) [][]T {
	s := t.rt.sim("AllToAll")
	if len(send) != t.rt.n {
		panic("upc: AllToAll send matrix must have THREADS rows")
	}
	t.stats.Collectives++
	if cap(recv) < t.rt.n {
		recv = make([][]T, t.rt.n)
	}
	recv = recv[:t.rt.n]
	if t.rt.n == 1 {
		// Same charge as the general path degenerates to at one thread:
		// no messages, no volume, the two latency terms.
		t.ChargeRaw(2 * t.rt.mach.Par.Latency)
		recv[0] = send[0]
		return recv
	}
	// Each thread deposits a pointer to its send rows (pointer-shaped, so
	// boxing it allocates nothing), and the resolver keeps the deposits in
	// s.a2a. No later AllToAll can overwrite them before this thread has
	// read its column below: resolving one takes this thread's deposit.
	_, clock := s.exchange(t, unsafe.SliceData(send), 0, func(slots []any) any {
		s.a2a = append(s.a2a[:0], slots...)
		return nil
	})
	t.AdvanceTo(clock)
	var zero T
	elem := intSizeof(zero)
	m := t.rt.mach
	sentBytes, recvBytes, nmsg := 0, 0, 0
	for j := 0; j < t.rt.n; j++ {
		recv[j] = unsafe.Slice(s.a2a[j].(*[]T), t.rt.n)[t.id]
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
