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
// lineBufs; a release past zero is a lifetime bug and panics.
type frame struct {
	snap    *core.Snapshot
	pool    *framePool
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
// frames' and step and snapshot responses' alike. A response's buffer
// goes back once Write has copied it out, a frame's when its last holder
// lets go; a buffer idle across two collections is dropped.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// framePool counts what became of a session's frame lines. Its lock is a
// leaf: frames are released under the hub's lock (publish dropping a slow
// subscriber's oldest frame) and outside it.
type framePool struct {
	mu      sync.Mutex
	lent    int       // line buffers out with live frames
	encodes [2]uint64 // encodings made, per kind

	// testEncodeHook, when set, runs on the encoding goroutine before each
	// encoding; tests use it to assert that no shard loop ever encodes.
	testEncodeHook func()
}

func (p *framePool) get(kind int) *[]byte {
	p.mu.Lock()
	p.lent++
	p.encodes[kind]++
	p.mu.Unlock()
	return lineBufs.Get().(*[]byte)
}

func (p *framePool) put(buf *[]byte) {
	p.mu.Lock()
	p.lent--
	p.mu.Unlock()
	lineBufs.Put(buf)
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
				f.pool.put(l.buf)
				l.buf = nil
			}
		}
	}
}
