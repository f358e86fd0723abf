package core

import (
	"encoding/json"
	"fmt"
	"io"
	"unsafe"

	"upcbh/internal/arena"
	"upcbh/internal/hostenv"
	"upcbh/internal/nbody"
	"upcbh/internal/upc"
)

// Checkpoint/restore of a paused simulation (DESIGN.md §12.3).
//
// The state captured here is exactly what persists across a completed
// step gate: the scheduler parks every live thread in its step state
// with the run queue empty, no barrier or collective arrivals counted
// and no lock held, so barrier/collective/lock-protocol state is
// quiescent by construction and only the values below travel. Restore
// reconstructs everything else by re-running the deterministic setup —
// core.New + session start is a pure function of Options, reproducing
// the heap allocation layout ref for ref — and then overwrites the
// mutable state in place while the fresh session is paused. Under the
// simulate backend the continuation is byte-identical to the
// uninterrupted run (clocks, phase tables, scheduler counters and all);
// under the native backend wall-clock timings necessarily differ and
// the guarantee is exact physics.
//
// Checkpoint layout: regions in the arena checkpoint container.
//
//	"state"  JSON (ckptState): Options, step counts, runtime clocks and
//	         scheduler counters, lock horizon, shared scalars (both the
//	         pointer tree's: empty in a native container), and every
//	         thread's persistent private state.
//	"heap"   simulate: the bodies heap, each shard's allocated bytes
//	         [0, n), concatenated in thread order.
//	"refs"   simulate: each thread's owned-body reference list (raw
//	         upc.Ref bytes), concatenated in thread order.
//	"bodies" native: the n bodies as raw nbody.Body records in tree-slot
//	         order, thread i's the n_owned after threads 0..i-1's (the
//	         partition claims consecutive intervals). Older native
//	         containers carry heap + refs instead; their refs, resolved
//	         in thread order, list the same records in the same order.

// Region names within the checkpoint container.
const (
	regState  = "state"
	regHeap   = "heap"
	regRefs   = "refs"
	regBodies = "bodies"
)

// ckptThread is one thread's persistent private state (the subset of
// tstate that survives a step gate; scratch that every step rebuilds —
// local trees, migration worklists, caches — is reconstructed).
type ckptThread struct {
	Step int `json:"step"`

	// Double-buffer geometry: the buffers' heap refs and occupancy.
	// Captured rather than recomputed because subspace redistribution
	// may have grown the buffers mid-run.
	Buf    [2]upc.Ref `json:"buf"`
	BufCap int        `json:"buf_cap"`
	Cur    int        `json:"cur"`
	CurLen int        `json:"cur_len"`
	NOwned int        `json:"n_owned"` // myBodies length; slices the refs or bodies region

	// Replicated scalars.
	Tol  float64  `json:"tol"`
	Eps  float64  `json:"eps"`
	Geom rootGeom `json:"geom"`
	Root NodeRef  `json:"root"`

	// Accumulated counters (measured steps).
	Inter        uint64  `json:"inter"`
	Migrated     int     `json:"migrated"`
	OwnedTot     int     `json:"owned_tot"`
	BufCopies    int     `json:"buf_copies"`
	CellsCopied  uint64  `json:"cells_copied"`
	CellsAliased uint64  `json:"cells_aliased"`
	TreeLocalT   float64 `json:"tree_local_t"`
	TreeMergeT   float64 `json:"tree_merge_t"`

	Phases    PhaseTimes           `json:"phases"`
	StepPh    []PhaseTimes         `json:"step_ph"`
	PhaseComm [NumPhases]upc.Stats `json:"phase_comm"`
}

// ckptState is the JSON "state" region.
type ckptState struct {
	Options   Options          `json:"options"`
	StepsDone int              `json:"steps_done"`
	Runtime   upc.RuntimeState `json:"runtime"`
	Locks     []float64        `json:"locks"`

	// UPC shared scalars (affinity thread 0).
	TolS  float64  `json:"tol_s"`
	EpsS  float64  `json:"eps_s"`
	GeomS rootGeom `json:"geom_s"`
	RootS NodeRef  `json:"root_s"`

	// HeapLens[i] is the element count of bodies shard i; together with
	// the element size it slices the heap region.
	HeapLens []int32 `json:"heap_lens"`

	Threads []ckptThread `json:"threads"`
}

// Checkpoint serializes the paused simulation to w in the versioned
// arena checkpoint format. Legal at any step gate (a fresh Sim is
// started and checkpointed before step 0); a finished or released Sim
// cannot be checkpointed. The simulation is not perturbed: every read
// is a copy taken while the runtime is quiescent.
func (s *Sim) Checkpoint(w io.Writer) error {
	regions, err := s.checkpointRegions()
	if err != nil {
		return err
	}
	return arena.WriteCheckpoint(w, s.o.Key(), s.stepsDone, captureEnv(), regions)
}

// CheckpointFile writes the bytes Checkpoint streams into a file at
// path, published atomically and durably (arena.WriteFileCheckpoint).
func (s *Sim) CheckpointFile(path string) error {
	regions, err := s.checkpointRegions()
	if err != nil {
		return err
	}
	return arena.WriteFileCheckpoint(path, s.o.Key(), s.stepsDone, captureEnv(), regions)
}

func captureEnv() json.RawMessage {
	env, err := json.Marshal(hostenv.Capture())
	if err != nil {
		return nil
	}
	return env
}

func (s *Sim) checkpointRegions() ([]arena.NamedRegion, error) {
	switch s.state {
	case simNew:
		s.start()
	case simPaused:
	case simFinished:
		return nil, fmt.Errorf("core: Checkpoint on a finished Sim: %w", ErrFinished)
	case simReleased:
		return nil, fmt.Errorf("core: Checkpoint on a released Sim: %w", ErrReleased)
	}
	p := s.rt.Threads()
	cs := ckptState{
		Options:   s.o,
		StepsDone: s.stepsDone,
		Runtime:   s.rt.CaptureState(),
		Threads:   make([]ckptThread, p),
	}
	var heap, refs []byte
	var bodies []nbody.Body
	if s.flat != nil {
		cs.Locks = []float64{} // "locks":[] and zero scalars: native has neither
		bodies = make([]nbody.Body, 0, s.o.Bodies)
	} else {
		cs.Locks = s.locks.CaptureAvail()
		cs.TolS = s.tolS.Peek()
		cs.EpsS = s.epsS.Peek()
		cs.GeomS = s.geomS.Peek()
		cs.RootS = s.rootS.Peek()
		cs.HeapLens = make([]int32, p)
	}
	for i, st := range s.ts {
		if s.flat != nil {
			for k, r := range st.myBodies {
				bodies = append(bodies, s.flat.body(st.slotLo+k, r.Idx))
			}
		} else {
			cs.HeapLens[i] = int32(s.bodies.Len(i))
			heap = s.bodies.CaptureShard(i, heap)
			refs = appendRefBytes(refs, st.myBodies)
		}
		cs.Threads[i] = ckptThread{
			Step:         st.step,
			Buf:          st.buf,
			BufCap:       st.bufCap,
			Cur:          st.cur,
			CurLen:       st.curLen,
			NOwned:       len(st.myBodies),
			Tol:          st.tol,
			Eps:          st.eps,
			Geom:         st.geom,
			Root:         st.root,
			Inter:        st.inter,
			Migrated:     st.migrated,
			OwnedTot:     st.ownedTot,
			BufCopies:    st.bufCopies,
			CellsCopied:  st.cellsCopied,
			CellsAliased: st.cellsAliased,
			TreeLocalT:   st.treeLocalT,
			TreeMergeT:   st.treeMergeT,
			Phases:       st.phases,
			StepPh:       st.stepPh,
			PhaseComm:    st.phaseComm,
		}
	}
	state, err := json.Marshal(&cs)
	if err != nil {
		return nil, fmt.Errorf("core: encode checkpoint state: %w", err)
	}
	if s.flat != nil {
		return []arena.NamedRegion{
			{Name: regState, Data: state},
			{Name: regBodies, Data: bodyRecordBytes(bodies)},
		}, nil
	}
	return []arena.NamedRegion{
		{Name: regState, Data: state},
		{Name: regHeap, Data: heap},
		{Name: regRefs, Data: refs},
	}, nil
}

const refBytes = int(unsafe.Sizeof(upc.Ref{}))

func appendRefBytes(buf []byte, refs []upc.Ref) []byte {
	if len(refs) == 0 {
		return buf
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&refs[0])), len(refs)*refBytes)
	return append(buf, b...)
}

// bodyRecordBytes is the memory of bs as raw bytes.
func bodyRecordBytes(bs []nbody.Body) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(bs))), len(bs)*bodyBytes)
}

// Restore reconstructs a paused simulation from a checkpoint written by
// Checkpoint/CheckpointFile. The returned Sim is paused at the
// checkpointed step: Step, Snapshot, Run, Finish, Release — and another
// Checkpoint — are all legal, and under the simulate backend the
// continuation is byte-identical to the run the checkpoint interrupted.
// Corrupt, truncated or incompatible input yields an error, never a
// partially restored Sim.
func Restore(r io.Reader) (*Sim, error) {
	c, err := arena.ReadCheckpoint(r)
	if err != nil {
		return nil, badCheckpoint(err)
	}
	state, ok := c.Region(regState)
	if !ok {
		return nil, badCheckpoint(fmt.Errorf("core: checkpoint has no %q region", regState))
	}
	var cs ckptState
	if err := json.Unmarshal(state, &cs); err != nil {
		return nil, badCheckpoint(fmt.Errorf("core: corrupt checkpoint state: %w", err))
	}
	if key := cs.Options.Key(); key != c.Header.Key {
		return nil, badCheckpoint(fmt.Errorf("core: checkpoint key mismatch: header says %q, state decodes to %q", c.Header.Key, key))
	}
	if cs.StepsDone != c.Header.Step {
		return nil, badCheckpoint(fmt.Errorf("core: checkpoint step mismatch: header says %d, state says %d", c.Header.Step, cs.StepsDone))
	}
	if err := cs.Options.validate(); err != nil {
		return nil, badCheckpoint(fmt.Errorf("core: checkpoint options rejected: %w", err))
	}
	heap, okHeap := c.Region(regHeap)
	refs, okRefs := c.Region(regRefs)
	var bodies []nbody.Body
	if cs.Options.ExecMode == ModeNative {
		// Checked whole before a Sim exists to index its columns by them.
		if bodies, err = nativeBodies(c, &cs, heap, refs); err != nil {
			return nil, badCheckpoint(err)
		}
	} else if !okHeap || !okRefs {
		return nil, badCheckpoint(fmt.Errorf("core: checkpoint lacks its %q or %q region", regHeap, regRefs))
	}
	s, err := New(cs.Options)
	if err != nil {
		return nil, fmt.Errorf("core: construct restore target: %w", err)
	}
	if err := s.restoreState(&cs, heap, refs, bodies); err != nil {
		s.Release()
		return nil, badCheckpoint(err)
	}
	return s, nil
}

// nativeBodies decodes a native container's n bodies in tree-slot order:
// the bodies region, or an older container's refs resolved, in thread
// order, into its heap region's shards. Either way the owned counts must
// sum to n and the IDs be a permutation of 0..n-1.
func nativeBodies(c *arena.Checkpoint, cs *ckptState, heap, refs []byte) ([]nbody.Body, error) {
	n, owned := cs.Options.Bodies, 0
	for i, tc := range cs.Threads {
		if tc.NOwned < 0 || tc.NOwned > n {
			return nil, fmt.Errorf("core: checkpoint thread %d owns %d of %d bodies", i, tc.NOwned, n)
		}
		owned += tc.NOwned
	}
	if owned != n {
		return nil, fmt.Errorf("core: ownership covers %d bodies, want %d", owned, n)
	}
	data, ok := c.Region(regBodies)
	name, rec := regBodies, bodyBytes
	if !ok {
		data, name, rec = refs, regRefs, refBytes
	}
	if len(data)%rec != 0 || len(data)/rec != n {
		return nil, fmt.Errorf("core: checkpoint %s region holds %d bytes, want %d records of %d", name, len(data), n, rec)
	}
	out := make([]nbody.Body, n)
	dst := bodyRecordBytes(out)
	if ok {
		copy(dst, data)
	} else {
		shard := make([]int, len(cs.HeapLens)+1) // byte offsets in heap
		for i, l := range cs.HeapLens {
			if l < 0 || int(l) > (len(heap)-shard[i])/bodyBytes {
				return nil, fmt.Errorf("core: checkpoint heap region truncated (shard %d holds %d bodies)", i, l)
			}
			shard[i+1] = shard[i] + int(l)*bodyBytes
		}
		for j := range out {
			r := *(*upc.Ref)(unsafe.Pointer(&refs[j*refBytes]))
			if r.Thr < 0 || int(r.Thr) >= len(cs.HeapLens) || r.Idx < 0 || r.Idx >= cs.HeapLens[r.Thr] {
				return nil, fmt.Errorf("core: checkpoint body ref %v out of range", r)
			}
			off := shard[r.Thr] + int(r.Idx)*bodyBytes
			copy(dst[j*bodyBytes:], heap[off:off+bodyBytes])
		}
	}
	ids := newIDSet(n)
	for i := range out {
		if err := ids.claim(out[i].ID); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PeekCheckpointHeader extracts the key and step a checkpoint
// container claims to capture, validating only the header (magic,
// version, shape) — not the payload. The durable checkpoint store uses
// it to answer "is this key+step already persisted?" without a full
// parse; the claim must still be proven by Restore before anything
// trusts the payload. Malformed input is marked ErrBadCheckpoint.
func PeekCheckpointHeader(data []byte) (key string, step int, err error) {
	h, err := arena.PeekHeader(data)
	if err != nil {
		return "", 0, badCheckpoint(err)
	}
	return h.Key, h.Step, nil
}

// badCheckpoint marks err as the checkpoint container's fault. Callers
// that restore on behalf of someone else (bhserve's POST /sims/restore)
// separate uploader mistakes from server-side construction failures
// with errors.Is(err, ErrBadCheckpoint).
func badCheckpoint(err error) error { return &marked{ErrBadCheckpoint, err} }

// restoreState overwrites the freshly constructed Sim's state with the
// captured snapshot. The fresh session has run setup and parked before
// step 0, so the heap allocation layout is the checkpointed run's
// setup-time layout; shards the checkpointed run grew past it are
// extended first, then every mutable byte is replaced. A native Sim
// takes the checked bodies, thread i the n_owned slots after 0..i-1's.
func (s *Sim) restoreState(cs *ckptState, heap, refs []byte, bodies []nbody.Body) error {
	p := s.rt.Threads()
	if len(cs.Threads) != p || (s.flat == nil && len(cs.HeapLens) != p) {
		return fmt.Errorf("core: checkpoint carries %d thread states for a %d-thread machine", len(cs.Threads), p)
	}
	if cs.StepsDone < 0 || cs.StepsDone > s.o.Steps {
		return fmt.Errorf("core: checkpoint at step %d outside the configured %d-step schedule", cs.StepsDone, s.o.Steps)
	}
	s.start()
	if err := s.rt.RestoreState(cs.Runtime); err != nil {
		return err
	}
	if s.flat == nil {
		// (The flat-tree path has neither locks nor shared scalars;
		// containers it wrote while it still allocated them carry 2048
		// idle locks and four values nothing read, ignored here.)
		if err := s.locks.RestoreAvail(cs.Locks); err != nil {
			return err
		}
		s.tolS.Poke(cs.TolS)
		s.epsS.Poke(cs.EpsS)
		s.geomS.Poke(cs.GeomS)
		s.rootS.Poke(cs.RootS)
	}

	var heapOff, refsOff, slot int
	for i, st := range s.ts {
		tc := &cs.Threads[i]
		st.step = tc.Step
		st.tol = tc.Tol
		st.eps = tc.Eps
		st.geom = tc.Geom
		st.root = tc.Root
		st.inter = tc.Inter
		st.migrated = tc.Migrated
		st.ownedTot = tc.OwnedTot
		st.bufCopies = tc.BufCopies
		st.cellsCopied = tc.CellsCopied
		st.cellsAliased = tc.CellsAliased
		st.treeLocalT = tc.TreeLocalT
		st.treeMergeT = tc.TreeMergeT
		st.phases = tc.Phases
		st.stepPh = append(st.stepPh[:0], tc.StepPh...)
		st.phaseComm = tc.PhaseComm
		if s.flat != nil {
			st.slotLo = slot
			st.myBodies = st.myBodies[:0]
			for range tc.NOwned {
				s.flat.setBody(slot, &bodies[slot])
				st.myBodies = append(st.myBodies, upc.Ref{Thr: int32(i), Idx: bodies[slot].ID})
				slot++
			}
			continue
		}
		n := int(cs.HeapLens[i])
		if cur := s.bodies.Len(i); cur > n {
			return fmt.Errorf("core: checkpoint shard %d holds %d bodies but fresh setup allocated %d — incompatible layout", i, n, cur)
		}
		if err := s.bodies.GrowShard(i, cs.HeapLens[i]); err != nil {
			return err
		}
		nb := n * bodyBytes
		if heapOff+nb > len(heap) {
			return fmt.Errorf("core: checkpoint heap region truncated (shard %d needs %d bytes, %d left)", i, nb, len(heap)-heapOff)
		}
		if err := s.bodies.RestoreShard(i, heap[heapOff:heapOff+nb]); err != nil {
			return err
		}
		heapOff += nb

		if tc.NOwned < 0 || tc.NOwned > (len(refs)-refsOff)/refBytes {
			return fmt.Errorf("core: checkpoint refs region truncated (thread %d owns %d bodies)", i, tc.NOwned)
		}
		st.myBodies = st.myBodies[:0]
		for j := 0; j < tc.NOwned; j++ {
			r := *(*upc.Ref)(unsafe.Pointer(&refs[refsOff+j*refBytes]))
			if int(r.Thr) < 0 || int(r.Thr) >= p || r.Idx < 0 || r.Idx >= cs.HeapLens[r.Thr] {
				return fmt.Errorf("core: checkpoint body ref %v out of range", r)
			}
			st.myBodies = append(st.myBodies, r)
		}
		refsOff += tc.NOwned * refBytes

		// The double-buffer geometry is dereferenced unchecked on the
		// hot path (redistribute LocalSlices up to bufCap elements at
		// st.buf[st.cur]), so a CRC-valid but crafted container must
		// not get out-of-range values past this point: a buffer ref
		// must be local to its thread, lie within the restored shard,
		// and fit one allocation chunk (the LocalSlice precondition
		// every genuine Alloc satisfies).
		if tc.Cur != 0 && tc.Cur != 1 {
			return fmt.Errorf("core: checkpoint thread %d current-buffer index %d (want 0 or 1)", i, tc.Cur)
		}
		if tc.BufCap < 1 || tc.CurLen < 0 || tc.CurLen > tc.BufCap {
			return fmt.Errorf("core: checkpoint thread %d buffer occupancy %d of capacity %d out of range", i, tc.CurLen, tc.BufCap)
		}
		bufOK := func(r upc.Ref) bool {
			return int(r.Thr) == i && r.Idx >= 0 &&
				int64(r.Idx)+int64(tc.BufCap) <= int64(cs.HeapLens[i]) &&
				s.bodies.OneChunk(r.Idx, tc.BufCap)
		}
		if !bufOK(tc.Buf[tc.Cur]) {
			return fmt.Errorf("core: checkpoint thread %d current buffer %v (capacity %d) out of range", i, tc.Buf[tc.Cur], tc.BufCap)
		}
		if s.o.Level >= LevelRedistribute {
			if !bufOK(tc.Buf[1-tc.Cur]) {
				return fmt.Errorf("core: checkpoint thread %d alternate buffer %v (capacity %d) out of range", i, tc.Buf[1-tc.Cur], tc.BufCap)
			}
		} else if tc.Cur != 0 || tc.Buf[1] != (upc.Ref{}) {
			// Below LevelRedistribute nothing ever allocates or swaps
			// to the alternate buffer; only the setup-time state is
			// genuine.
			return fmt.Errorf("core: checkpoint thread %d carries an alternate buffer %v at level %v", i, tc.Buf[1], s.o.Level)
		}

		st.buf = tc.Buf
		st.bufCap = tc.BufCap
		st.cur = tc.Cur
		st.curLen = tc.CurLen
	}
	if s.flat == nil && heapOff != len(heap) {
		return fmt.Errorf("core: checkpoint heap region has %d trailing bytes", len(heap)-heapOff)
	}
	if s.flat == nil && refsOff != len(refs) {
		return fmt.Errorf("core: checkpoint refs region has %d trailing bytes", len(refs)-refsOff)
	}
	s.stepsDone = cs.StepsDone
	return nil
}
