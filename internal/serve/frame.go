package serve

import (
	"sync"
	"sync/atomic"

	"upcbh/internal/core"
	"upcbh/internal/nbody"
)

// A frame is one snapshot on its way out of the process (DESIGN.md
// §12.6): the published *core.Snapshot plus at most two NDJSON lines of
// it — without bodies and with — each encoded once, by the first stream
// writer that needs it, and read by every other writer of the same kind.
// The shard loop only ever creates and hands out frames; it never encodes
// one.
//
// A frame is shared by reference and counted per holder: one count for
// each subscriber queue slot it sits in and for each writer between
// dequeue and the end of its Write (the dequeuer inherits the slot's
// count). Whoever drops a frame — the drop-oldest policy, a stale frame, a
// departing subscriber draining its queue — releases it like any other
// holder. When the last holder lets go, the frame's line buffers return to
// lineBufs, and the pooled gather its snapshot's bodies lie in, if any, to
// the session's free list; a release past zero is a lifetime bug and
// panics. So a holder reads snap.Bodies only between its retain and its
// release, and keeps nothing of them past it.
type frame struct {
	snap    *core.Snapshot
	pool    *framePool
	gather  []nbody.Body // snap.Bodies' memory when it came from pool's free list
	holders atomic.Int32
	lines   [2]frameLine // indexed by kind
}

// frameLine is one lazily produced encoding of a frame.
type frameLine struct {
	once sync.Once
	buf  *[]byte // from lineBufs: the snapshot's JSON and a '\n'
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

// lineBufs holds the buffers every snapshot line is encoded into — stream
// frames' and step and snapshot responses' alike — one pool per kind, so a
// bodies line never regrows a buffer a meta line shrank the need of, nor
// the other way round. A response's buffer goes back once Write has copied
// it out, a frame's when its last holder lets go; a buffer idle across two
// collections is dropped.
var lineBufs = [2]sync.Pool{
	kindMeta:   {New: func() any { return new([]byte) }},
	kindBodies: {New: func() any { return new([]byte) }},
}

// closedGathers holds the gathers of closed hubs, as *[]nbody.Body, until
// the collector takes what sits idle across two collections: a session
// that starts streaming soon after another ended draws on them before it
// makes its own.
var closedGathers sync.Pool

// framePool counts what became of a session's frame lines and keeps its
// free list of gathers: the body slices a bodies frame's snapshot is
// gathered into (Sim.SnapshotInto), each back on the list when its frame's
// last holder lets go. The list is a plain slice, not a sync.Pool: a
// gather is taken on the shard loop and given back on a stream handler's
// goroutine, and a sync.Pool keeps the last one put in a per-processor
// slot that a Get on another processor cannot see. When the hub closes
// the list moves into closedGathers, as does a gather that comes back
// after that, so the memory lives about as long as the session streams.
// Its lock is a leaf: frames are released under the hub's lock (publish
// dropping a slow subscriber's oldest frame) and outside it.
type framePool struct {
	mu      sync.Mutex
	lent    int       // line buffers out with live frames
	encodes [2]uint64 // encodings made, per kind
	free    [][]nbody.Body
	gathers int // gathers out: taken from free and not yet given back
	closed  bool

	// testEncodeHook, when set, runs on the encoding goroutine before each
	// encoding; tests use it to assert that no shard loop ever encodes.
	testEncodeHook func()
}

func (p *framePool) get(kind int) *[]byte {
	p.mu.Lock()
	p.lent++
	p.encodes[kind]++
	p.mu.Unlock()
	return lineBufs[kind].Get().(*[]byte)
}

func (p *framePool) put(kind int, buf *[]byte) {
	p.mu.Lock()
	p.lent--
	p.mu.Unlock()
	lineBufs[kind].Put(buf)
}

// getGather lends out an idle gather, or nil when none is idle: gathering
// into nil makes the slice that later joins the list.
func (p *framePool) getGather() []nbody.Body {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gathers++
	n := len(p.free)
	if n == 0 {
		if g, ok := closedGathers.Get().(*[]nbody.Body); ok {
			return *g
		}
		return nil
	}
	g := p.free[n-1]
	p.free = p.free[:n-1]
	return g
}

// putGather takes back what getGather lent: onto the free list while the
// hub is open, else into closedGathers (a failed gather gives back what it
// was lent, maybe nil).
func (p *framePool) putGather(g []nbody.Body) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gathers--
	switch {
	case g == nil:
	case p.closed:
		closedGathers.Put(&g)
	default:
		p.free = append(p.free, g)
	}
}

// close moves the free list into closedGathers; gathers still out follow
// on return.
func (p *framePool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, g := range p.free {
		closedGathers.Put(&g)
	}
	p.free = nil
}

// newFrame wraps snap for one holder, the caller.
func (p *framePool) newFrame(snap *core.Snapshot) *frame {
	f := &frame{snap: snap, pool: p}
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
		if !withBodies {
			snap = withoutBodies(snap)
		}
		l.buf = f.pool.get(kind)
		b, err := snap.AppendJSON((*l.buf)[:0])
		if err == nil {
			b = append(b, '\n')
		}
		*l.buf, l.err = b, err
	})
	return *l.buf, l.err
}

func (f *frame) retain() { f.holders.Add(1) }

func (f *frame) release() {
	switch n := f.holders.Add(-1); {
	case n < 0:
		panic("serve: frame released more often than it was held")
	case n == 0:
		for kind := range f.lines {
			// No holder is left, so no line is being read and no once is
			// running; a line never asked for took no buffer.
			if l := &f.lines[kind]; l.buf != nil {
				f.pool.put(kind, l.buf)
				l.buf = nil
			}
		}
		if f.gather != nil {
			f.pool.putGather(f.gather)
			f.gather = nil
		}
	}
}
