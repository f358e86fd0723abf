package upc

import "upcbh/internal/machine"

// msgTableBytes bounds the wire sizes the message-cost table covers. The
// engine's fine-grained accesses use a handful of fixed sizes — 8 to 56
// byte struct prefixes, a scalar, a lock message, one whole body, one
// whole cell — all well below it; only aggregated gathers of several
// elements from one source exceed it and take the model call instead.
const msgTableBytes = 256

// fillMsgCosts tabulates the machine model's message cost for every path
// class that exists between two threads of this machine (self and
// network when every thread has its own node; shared memory or loopback
// too when nodes hold several) and every byte count below msgTableBytes.
// Each entry is what Machine.Message returns for a thread pair of that
// class — the model's own function, called here instead of once per
// charged access — so a table lookup and a model call are
// interchangeable bit for bit, and the accounting below applies the
// entry's three fields in exactly the order it applied the call's.
func (rt *Runtime) fillMsgCosts() {
	m := rt.mach
	// Thread 0's peers: itself, its first same-node neighbour (thread 1
	// is off-node when nodes hold one thread), the first off-node thread.
	for _, b := range []int{0, 1, m.ThreadsPerNode} {
		if b >= rt.n {
			continue
		}
		class := m.Path(0, b)
		if rt.msgCosts[class] != nil {
			continue
		}
		tab := make([]machine.MsgCost, msgTableBytes)
		for bytes := range tab {
			tab[bytes] = m.Message(0, b, bytes)
		}
		rt.msgCosts[class] = tab
	}
}

// msgCost returns Machine.Message(t.id, peer, bytes): from the table
// when the size is in it, from the model otherwise (sizes past the bound;
// negative sizes, which the model clamps to zero).
func (t *Thread) msgCost(peer, bytes int) machine.MsgCost {
	rt := t.rt
	if tab := rt.msgCosts[rt.mach.Path(t.id, peer)]; uint(bytes) < uint(len(tab)) {
		return tab[bytes]
	}
	return rt.mach.Message(t.id, peer, bytes)
}

// access accounts a fine-grained one-sided get or put of bytes between
// t and thread thr: the pointer-to-shared overhead when thr is t, else a
// blocking round trip counted in *remote (RemoteGets or RemotePuts).
func (t *Thread) access(thr, bytes int, remote *uint64) {
	if thr == t.id {
		t.stats.LocalDerefs++
		t.ChargeRaw(t.rt.mach.Par.GPtrDerefCost)
		return
	}
	*remote++
	t.remoteRoundTrip(thr, bytes)
}

// remoteRoundTrip accounts a blocking one-sided transfer of `bytes`
// between t and thread `target` (the data copy happens in the caller).
// Only heaps and scalars call it, and both are simulate-only.
func (t *Thread) remoteRoundTrip(target, bytes int) {
	t.stats.Msgs++
	t.stats.Bytes += uint64(bytes)
	mc := t.msgCost(target, bytes)
	// Request reaches the target, queues at its NIC, then the reply
	// transits back.
	arrive := t.clock + mc.SenderBusy + mc.Transit
	start := t.rt.nicReserve(target, arrive, mc.TargetBusy)
	t.clock = start + mc.Transit
}

// gatherFrom accounts one per-source-thread message of an aggregated
// gather under simulation and returns its completion time; the local
// share of a gather is a memcpy.
func (t *Thread) gatherFrom(source, bytes int) float64 {
	if source == t.id {
		t.clock += float64(bytes) * t.rt.mach.Par.ByteCopyCost
		return t.clock
	}
	c := t.msgCost(source, bytes)
	t.clock += c.SenderBusy
	arrive := t.clock + c.Transit
	start := t.rt.nicReserve(source, arrive, c.TargetBusy)
	return start + c.Transit
}
