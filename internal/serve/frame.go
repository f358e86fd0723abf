package serve

import (
	"sync"
	"sync/atomic"

	"upcbh/internal/core"
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
// the session's pool; a release past zero is a lifetime bug and panics.
type frame struct {
	snap    *core.Snapshot
	pool    *framePool
	holders atomic.Int32
	lines   [2]frameLine // indexed by kind
}

// frameLine is one lazily produced encoding of a frame.
type frameLine struct {
	once sync.Once
	b    []byte // the snapshot's JSON and a '\n'
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

// framePool is a session's supply of line buffers and its count of what
// became of them. Its lock is a leaf: frames are released under the hub's
// lock (publish dropping a slow subscriber's oldest frame) and outside it.
type framePool struct {
	mu      sync.Mutex
	free    [2][][]byte // per kind: a bodies line is hundreds of times a meta line
	closed  bool        // the session's stream has ended: keep nothing
	lent    int         // buffers out with live frames
	encodes [2]uint64   // encodings made, per kind

	// testEncodeHook, when set, runs on the encoding goroutine before each
	// encoding; tests use it to assert that no shard loop ever encodes.
	testEncodeHook func()
}

// maxFreeLines bounds each kind's free list. One writer in steady state
// keeps one buffer in flight; readers of uneven speed can have up to a
// queue's worth, which is not worth pinning for the session's lifetime.
const maxFreeLines = 4

func (p *framePool) get(kind int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lent++
	p.encodes[kind]++
	if n := len(p.free[kind]); n > 0 {
		b := p.free[kind][n-1]
		p.free[kind] = p.free[kind][:n-1]
		return b
	}
	return nil
}

func (p *framePool) put(kind int, b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lent--
	if !p.closed && len(p.free[kind]) < maxFreeLines {
		p.free[kind] = append(p.free[kind], b[:0])
	}
}

// close empties the free lists for good: a finished session streams at
// most terminal frames, and should not hold megabytes for them.
func (p *framePool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.free = [2][][]byte{}
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
		buf := f.pool.get(kind)
		if l.b, l.err = snap.AppendJSON(buf); l.err == nil {
			l.b = append(l.b, '\n')
		}
	})
	return l.b, l.err
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
			if l := &f.lines[kind]; l.b != nil {
				f.pool.put(kind, l.b)
				l.b = nil
			}
		}
	}
}
