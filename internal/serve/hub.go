package serve

import (
	"sync"

	"upcbh/internal/core"
)

// hub fans one session's snapshot stream out to many subscribers: one
// stepper publishes, N subscribers each drain a private buffered channel
// of frames (frame.go) — every subscriber's queue holds the same frame by
// reference, so a frame is encoded once however many read it.
// A slow consumer never blocks the stepper (which would stall every
// session on the shard): when a subscriber's buffer is full, publish
// drops that subscriber's oldest queued frame and enqueues the new
// one. The consumer lags to the freshest frames — step indices it
// observes stay strictly monotone, it always eventually sees the
// terminal snapshot, and the drop is counted.
type hub struct {
	// mu guards everything below but frames. publish and close run on the
	// shard loop; subscribe/unsubscribe run on HTTP handler goroutines.
	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	closed  bool
	dropped uint64
	bodied  int // subscribers that asked for bodies

	// frames counts the line buffers of every frame of this session,
	// published or not (a stream's first frame).
	frames framePool
}

// subscriber is one stream consumer's view of a hub. Receiving a frame
// from ch makes the receiver its holder: release it after use.
type subscriber struct {
	ch     chan *frame
	bodies bool // it writes frames with their bodies
}

func newHub() *hub {
	return &hub{subs: make(map[*subscriber]struct{})}
}

// subscribe attaches a consumer with a private buffer of `buf`
// snapshots, which writes them with their bodies if `bodies`. On a closed
// hub (the session already finished) it returns nil: the caller serves
// the terminal state and ends the stream.
func (h *hub) subscribe(buf int, bodies bool) *subscriber {
	if buf < 1 {
		buf = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	sub := &subscriber{ch: make(chan *frame, buf), bodies: bodies}
	h.subs[sub] = struct{}{}
	if bodies {
		h.bodied++
	}
	return sub
}

// unsubscribe detaches a consumer (idempotent; safe after close) and
// releases the frames it leaves unread. Only the consumer itself calls it,
// so nothing else is receiving from its channel.
func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		close(sub.ch)
		if sub.bodies {
			h.bodied--
		}
	}
	h.mu.Unlock()
	// Off the hub's set the channel is closed, by the lines above or by
	// close, and nothing sends on it anymore.
	for f := range sub.ch {
		f.release()
	}
}

// publish delivers snap, as one shared frame, to every subscriber,
// applying the drop-oldest-when-full policy per subscriber. Never blocks
// on a consumer, and encodes nothing: this is the shard loop.
func (h *hub) publish(snap *core.Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || len(h.subs) == 0 {
		return
	}
	f := h.frames.newFrame(snap)
	defer f.release() // publish's own hold, while it hands out the others
	for sub := range h.subs {
		f.retain() // the queue slot's
		for {
			select {
			case sub.ch <- f:
			default:
				// Buffer full: evict the subscriber's oldest queued
				// frame and retry. The inner default covers the race
				// where the consumer drained between our two selects.
				select {
				case old := <-sub.ch:
					old.release()
					h.dropped++
				default:
				}
				continue
			}
			break
		}
	}
}

// close ends the stream: every subscriber's channel closes after the
// frames already buffered, and later subscribe calls return nil.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	h.bodied = 0
	for sub := range h.subs {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// subscriberCount reports the number of attached consumers.
func (h *hub) subscriberCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// wantsBodies reports whether an attached consumer writes bodies. Stream
// subscriptions are taken on the session's shard loop, so a shard task
// that checks it and then publishes sees a stable answer.
func (h *hub) wantsBodies() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bodied > 0
}

// droppedCount returns the total snapshots lost to the drop policy.
func (h *hub) droppedCount() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}
