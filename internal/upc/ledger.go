package upc

import "math"

// Ledger is one thread's accounting, recorded instead of charged: what
// a run of its code charged, got, put, gathered and waited for, in
// program order, touching no clock, counter or NIC. Any goroutine may
// fill a thread's ledger; Thread.Apply then replays it in the thread's
// own baton turn through the accounting the direct calls run, so clocks,
// NIC horizons and Stats end bit-equal to the direct calls'. It is sound
// for code whose control flow reads no clock (DESIGN.md §9, "Host
// workers and the ledger"). The zero Ledger is empty.
type Ledger struct {
	ops    []lop
	secs   []float64     // the distinct amounts charged, in first-use order
	groups []gatherGroup // each gather's per-source groups, in gather order
	nh     int32         // gathers recorded
	done   []float64     // each gather's completion time by ordinal, during Apply
}

// lop is one recorded operation: its kind in the low 3 bits, an
// argument a in the next 29 and an argument b in the high 32.
type lop uint64

const (
	lCharge lop = iota // a: index into secs, b: how many charges
	lGet               // a: source thread, b: bytes
	lPut               // a: target thread, b: bytes
	lGather            // a: source groups, b: bytes per element
	lWait              // b: gather ordinal
)

func (l *Ledger) add(kind lop, a, b int) {
	l.ops = append(l.ops, kind|lop(a)<<3|lop(uint32(b))<<32)
}

// Reset empties l for a new recording, keeping its memory.
func (l *Ledger) Reset() {
	l.ops, l.groups, l.secs, l.nh = l.ops[:0], l.groups[:0], l.secs[:0], 0
}

// Charge records n < 2³² calls of Thread.Charge(sec) as one operation.
// It keeps sec, not its product with the CPU factor, so Apply evaluates
// Charge's own arithmetic.
func (l *Ledger) Charge(sec float64, n int) {
	if n <= 0 {
		return
	}
	i := 0
	for i < len(l.secs) && math.Float64bits(l.secs[i]) != math.Float64bits(sec) {
		i++
	}
	if i == len(l.secs) {
		l.secs = append(l.secs, sec)
	}
	l.add(lCharge, i, n)
}

// Get records a fine-grained get of bytes from r (Heap.ReadView,
// GetBytes, Touch).
func (l *Ledger) Get(r Ref, bytes int) {
	if r.IsNil() {
		panic("upc: dereference of nil pointer-to-shared")
	}
	l.add(lGet, int(r.Thr), bytes)
}

// Put records a fine-grained put of bytes to r (Heap.PutBytes, TouchPut).
func (l *Ledger) Put(r Ref, bytes int) {
	if r.IsNil() {
		panic("upc: store through nil pointer-to-shared")
	}
	l.add(lPut, int(r.Thr), bytes)
}

// Gather records Heap.GatherAsyncBytes(refs, bytesPer), bytesPer being
// the exact bytes per element, and returns its ordinal for Wait.
func (l *Ledger) Gather(refs []Ref, bytesPer int) int32 {
	n := len(l.groups)
	l.groups = groupSources(l.groups, refs)
	l.add(lGather, len(l.groups)-n, bytesPer)
	l.nh++
	return l.nh - 1
}

// Wait records WaitSync on the gather with ordinal h.
func (l *Ledger) Wait(h int32) { l.add(lWait, 0, int(h)) }

// Apply replays l on t in recorded order, each operation through the
// accounting its direct call runs. It must run in t's turn.
func (t *Thread) Apply(l *Ledger) {
	groups := l.groups
	l.done = l.done[:0]
	for _, o := range l.ops {
		a, b := int(o>>3&(1<<29-1)), int(o>>32)
		switch o & 7 {
		case lCharge:
			c, sec, f := t.clock, l.secs[a], t.rt.cpuFactor
			for ; b > 0; b-- {
				c = charged(c, sec, f)
			}
			t.clock = c
		case lGet:
			t.access(a, b, &t.stats.RemoteGets)
		case lPut:
			t.access(a, b, &t.stats.RemotePuts)
		case lGather:
			l.done = append(l.done, t.gather(groups[:a], b).CompleteAt)
			groups = groups[a:]
		case lWait:
			t.AdvanceTo(l.done[b])
		}
	}
}
