package serve

import (
	"sync"
	"sync/atomic"

	"upcbh/internal/core"
	"upcbh/internal/nbody"
)

// A frame is one snapshot on its way out of the process (DESIGN.md
// §12.6) — a stream line, a step response or a snapshot response alike:
// the *core.Snapshot plus at most two NDJSON lines of it — without bodies
// and with — each encoded once, by the first writer that needs it,
// response or subscriber, and read by every other writer of the same
// kind. The shard loop only ever creates and hands out frames; it never
// encodes one.
//
// A frame is shared by reference and counted per holder: one count for
// the caller that took it (session.frameLocked), one for each subscriber
// queue slot it sits in and for each writer between dequeue and the end of
// its Write (the dequeuer inherits the slot's count). Whoever drops a
// frame — the drop-oldest policy, a stale frame, a departing subscriber
// draining its queue — releases it like any other holder. When the last
// holder lets go, the frame's line buffers and the gather its snapshot's
// bodies lie in, if any, return to the session's spares; a release past
// zero is a lifetime bug and panics. So a holder reads snap.Bodies only
// between its retain and its release, and keeps nothing of them past it.
type frame struct {
	snap    *core.Snapshot
	pool    *framePool
	gather  []nbody.Body // snap.Bodies' memory when it came from pool's spares
	holders atomic.Int32
	lines   [2]frameLine // indexed by kind
}

// frameLine is one lazily produced encoding of a frame.
type frameLine struct {
	once sync.Once
	buf  []byte // from pool's spares: the snapshot's JSON and a '\n'
	err  error
}

// The two encodings of a frame.
const (
	kindMeta   = 0 // `bodies` omitted
	kindBodies = 1
)

func kindOf(withBodies bool) int {
	if withBodies {
		return kindBodies
	}
	return kindMeta
}

// spares are a session's idle egress buffers: the body slices a bodies
// frame's snapshot is gathered into (Sim.SnapshotInto), and the line
// buffers of each kind, so a bodies line never regrows a buffer a meta
// line shrank the need of, nor the other way round. They are plain
// slices, not a sync.Pool: a buffer is taken on one goroutine (the shard
// loop, a handler) and given back on another, and a sync.Pool keeps the
// last one put in a per-processor slot that a Get on another processor
// cannot see, and drops what sits idle across two collections. A
// session's spares hold at most one of each per frame alive at once.
type spares struct {
	gathers [][]nbody.Body
	lines   [2][][]byte
}

// framePool counts what became of a session's frames and keeps its
// spares; a closed hub's pool drops them, and what comes back after, so
// the memory lives as long as the session streams. Its lock is a leaf:
// frames are released under the hub's lock (publish dropping a slow
// subscriber's oldest frame) and outside it.
type framePool struct {
	mu      sync.Mutex
	lent    int       // line buffers out with live frames
	encodes [2]uint64 // encodings made, per kind
	gathers int       // gathers out: taken from spares and not yet given back
	spares  spares
	closed  bool

	// testEncodeHook, when set, runs on the encoding goroutine before each
	// encoding; tests use it to assert that no shard loop ever encodes.
	testEncodeHook func()
}

// take pops an idle buffer off list, or returns nil when none is idle:
// appending to nil makes the buffer that later joins the list.
func take[S ~[]E, E any](list *[]S) S {
	n := len(*list)
	if n == 0 {
		return nil
	}
	s := (*list)[n-1]
	*list = (*list)[:n-1]
	return s
}

// keep puts s back on list while the hub is open (a failed gather gives
// back what it was lent, maybe nil). Must hold p.mu.
func keep[S ~[]E, E any](p *framePool, list *[]S, s S) {
	if s != nil && !p.closed {
		*list = append(*list, s)
	}
}

func (p *framePool) getLine(kind int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lent++
	p.encodes[kind]++
	return take(&p.spares.lines[kind])
}

func (p *framePool) putLine(kind int, buf []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lent--
	keep(p, &p.spares.lines[kind], buf)
}

func (p *framePool) getGather() []nbody.Body {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gathers++
	return take(&p.spares.gathers)
}

func (p *framePool) putGather(g []nbody.Body) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gathers--
	keep(p, &p.spares.gathers, g)
}

// close drops the spares; buffers still out are dropped on return.
func (p *framePool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.spares = spares{}
}

// newFrame wraps snap for one holder, the caller. gather is the spare
// snap.Bodies lie in (nil: the frame owns no body memory), which the
// frame gives back at its last release.
func (p *framePool) newFrame(snap *core.Snapshot, gather []nbody.Body) *frame {
	f := &frame{snap: snap, pool: p, gather: gather}
	f.holders.Store(1)
	return f
}

// line returns the frame's NDJSON line of the given kind, encoding it on
// the calling goroutine if no holder has yet. The bytes are shared and
// valid until the caller's release. A snapshot json would refuse (a NaN)
// is an error for every holder, and no part of it is kept.
func (f *frame) line(withBodies bool) ([]byte, error) {
	kind := kindOf(withBodies)
	l := &f.lines[kind]
	l.once.Do(func() {
		if hook := f.pool.testEncodeHook; hook != nil {
			hook()
		}
		snap := f.snap
		if !withBodies && snap.Bodies != nil {
			// Strip on a copy: another holder may be encoding the bodies
			// line from the shared snapshot right now.
			meta := *snap
			meta.Bodies = nil
			snap = &meta
		}
		b, err := snap.AppendJSON(f.pool.getLine(kind))
		if err == nil {
			b = append(b, '\n')
		}
		l.buf, l.err = b, err
	})
	return l.buf, l.err
}

func (f *frame) retain() { f.holders.Add(1) }

func (f *frame) release() {
	switch n := f.holders.Add(-1); {
	case n < 0:
		panic("serve: frame released more often than it was held")
	case n == 0:
		for kind := range f.lines {
			// No holder is left, so no line is being read and no once is
			// running; a line never asked for took no buffer, and one
			// encoded holds AppendJSON's buffer, never nil.
			if l := &f.lines[kind]; l.buf != nil {
				f.pool.putLine(kind, l.buf[:0])
				l.buf = nil
			}
		}
		if f.gather != nil {
			f.pool.putGather(f.gather)
			f.gather = nil
		}
	}
}
