package upc

// Lock is a upc_lock_t: a global lock with affinity to a home thread. In
// real execution it is a channel-based mutex (so waiters can abort if a
// peer thread fails); in simulated time, acquisition additionally costs a
// round trip to the home thread and the critical sections of competing
// threads serialize through the lock's availability time, which is what
// makes lock contention visible in the reported phase times.
type Lock struct {
	rt      *Runtime
	home    int
	ch      chan struct{} // ModeNative only: holds one token when the lock is free
	availAt float64       // simulated time the lock frees up; guarded by holding the lock

	// Cooperative-scheduler state (ModeSimulate): only the baton holder
	// touches these, so they need no synchronization. Ownership transfers
	// directly to the first waiter on release.
	held    bool
	waiters []int32
}

// NewLock allocates a lock homed on thread `home` (upc_global_lock_alloc
// distributes homes; the Barnes-Hut code uses arrays of locks).
func (rt *Runtime) NewLock(home int) *Lock {
	l := new(Lock)
	rt.initLock(l, home)
	return l
}

// initLock makes *l a free lock homed on thread `home`. The token channel
// exists only where Acquire uses it: under the cooperative scheduler
// ownership is the held flag.
func (rt *Runtime) initLock(l *Lock, home int) {
	*l = Lock{rt: rt, home: home % rt.n}
	if rt.coop == nil {
		l.ch = make(chan struct{}, 1)
		l.ch <- struct{}{}
	}
}

// Acquire takes the lock (upc_lock). Mutual exclusion is real in every
// mode; under simulation the caller's clock is additionally advanced past
// both the messaging cost and any serialization behind the previous
// holder. Acquire aborts if a peer thread has failed, so a panic inside a
// critical section cannot strand other threads.
func (l *Lock) Acquire(t *Thread) {
	t.stats.LockAcqs++
	t.stats.Msgs++
	if s := t.rt.coop; s != nil {
		s.lockAcquire(t, l)
	} else {
		select {
		case <-l.ch:
		default:
			select {
			case <-l.ch:
			case <-t.rt.poisonCh:
				panic(poisonAbort{poisonSecondary})
			}
		}
	}
	t.rt.cost.lockAcquired(t, l)
}

// Release drops the lock (upc_unlock).
func (l *Lock) Release(t *Thread) {
	t.rt.cost.lockReleasing(t, l)
	if s := t.rt.coop; s != nil {
		s.lockRelease(t, l)
		return
	}
	l.ch <- struct{}{}
}

// LockArray is the hashed array of locks SPLASH2 uses to protect octree
// cells without one lock per cell.
type LockArray struct {
	locks []Lock
}

// NewLockArray creates n locks, in one slab, with homes spread
// round-robin over threads.
func (rt *Runtime) NewLockArray(n int) *LockArray {
	la := &LockArray{locks: make([]Lock, n)}
	for i := range la.locks {
		rt.initLock(&la.locks[i], i)
	}
	return la
}

// ForRef returns the lock guarding the cell addressed by r.
func (la *LockArray) ForRef(r Ref) *Lock {
	h := uint64(uint32(r.Thr))*0x9e3779b1 + uint64(uint32(r.Idx))*0x85ebca6b
	return &la.locks[h%uint64(len(la.locks))]
}
