package upc

// Lock is a upc_lock_t: a global lock with affinity to a home thread.
// At most one thread runs at a time, so ownership is the held flag; acquisition costs a round trip to
// the home thread and the critical sections of competing threads
// serialize through the lock's availability time, which is what makes
// lock contention visible in the reported phase times.
type Lock struct {
	rt      *Runtime
	home    int
	availAt float64 // simulated time the lock frees up; guarded by holding the lock

	// Only the baton holder touches these, so they need no
	// synchronization. Ownership transfers directly to the first waiter
	// on release.
	held    bool
	waiters []int32
}

// lockMsgBytes is the modelled wire size of a lock protocol message.
const lockMsgBytes = 16

// NewLock allocates a lock homed on thread `home` (upc_global_lock_alloc
// distributes homes; the Barnes-Hut code uses arrays of locks).
func (rt *Runtime) NewLock(home int) *Lock {
	return &Lock{rt: rt, home: home % rt.n}
}

// Acquire takes the lock (upc_lock): the caller parks until the holder
// releases, and its clock is advanced past both the messaging cost and
// any serialization behind the previous holder. Acquire aborts if a peer
// thread has failed, so a panic inside a critical section cannot strand
// other threads.
func (l *Lock) Acquire(t *Thread) {
	t.stats.LockAcqs++
	t.stats.Msgs++
	t.rt.coop.lockAcquire(t, l)
	c := t.msgCost(l.home, lockMsgBytes)
	// Request is serviced at the home no earlier than the lock frees up.
	req := t.clock + c.SenderBusy + c.Transit
	if l.availAt > req {
		req = l.availAt
	}
	t.clock = req + t.rt.mach.Par.LockOverhead + c.Transit
}

// Release drops the lock (upc_unlock).
func (l *Lock) Release(t *Thread) {
	c := t.msgCost(l.home, lockMsgBytes)
	l.availAt = t.clock + c.SenderBusy + c.Transit + t.rt.mach.Par.LockOverhead
	t.clock += c.SenderBusy
	t.rt.coop.lockRelease(t, l)
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
		la.locks[i] = Lock{rt: rt, home: i % rt.n}
	}
	return la
}

// ForRef returns the lock guarding the cell addressed by r.
func (la *LockArray) ForRef(r Ref) *Lock {
	h := uint64(uint32(r.Thr))*0x9e3779b1 + uint64(uint32(r.Idx))*0x85ebca6b
	return &la.locks[h%uint64(len(la.locks))]
}
