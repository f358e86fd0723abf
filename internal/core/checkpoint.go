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

// Checkpoint/restore of a paused simulation (DESIGN.md §12.3): the
// container framing and the Sim's share of the state; each engine
// captures and restores its own (simEngine.capture, flatEngine.capture).
//
// The state captured here is exactly what persists across a completed
// step gate: barrier, collective and lock protocols are quiescent at a
// pause, so only values travel. Restore re-runs the deterministic setup —
// New + session start is a pure function of Options, reproducing the heap
// allocation layout ref for ref — then overwrites the mutable state while
// the fresh session is paused. A simulate continuation is byte-identical
// to the uninterrupted run; a native one has exact physics.
//
// Regions in the arena checkpoint container:
//
//	"state"  JSON (ckptState), written by the Sim and filled in by the
//	         engine: Options, step counts, the step-phase table, runtime
//	         clocks and scheduler counters, lock horizons and shared
//	         scalars (zero, and "locks":[], in a native container), every
//	         thread's state.
//	"bodies" both engines: the n owned bodies as raw nbody.Body records,
//	         thread i's the n_owned after threads 0..i-1's, each thread's
//	         in myBodies order (tree-slot order under flatEngine).
//	"refs"   simEngine: each owned body's heap ref (raw upc.Ref bytes),
//	         in the same order as "bodies".
//
// Older containers of both engines carry no "bodies" but a "heap": each
// body shard's allocated bytes [0, heap_lens[i]), in thread order, into
// which their "refs" resolve to the same records. ownedBodies reads both
// layouts, so every engine restores from its result alone. Older
// containers also carry each thread's step-phase rows ("step_ph") in
// place of the one table; stepRows reduces them.

// Region names within the checkpoint container.
const (
	regState  = "state"
	regHeap   = "heap"
	regRefs   = "refs"
	regBodies = "bodies"
)

// ckptThread is one thread's persistent private state: its tstate and
// its engine's thread state that survive a step gate (scratch that every
// step rebuilds — local trees, migration worklists, caches — is
// reconstructed). A native thread leaves the buffer fields and root zero.
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
	StepPh    []PhaseTimes         `json:"step_ph,omitempty"` // read from older containers only
	PhaseComm [NumPhases]upc.Stats `json:"phase_comm"`
}

// ckptState is the JSON "state" region.
type ckptState struct {
	Options    Options          `json:"options"`
	StepsDone  int              `json:"steps_done"`
	StepPhases []PhaseTimes     `json:"step_phases"` // the Sim's step-phase table
	Runtime    upc.RuntimeState `json:"runtime"`
	Locks      []float64        `json:"locks"`

	// UPC shared scalars (affinity thread 0).
	TolS  float64  `json:"tol_s"`
	EpsS  float64  `json:"eps_s"`
	GeomS rootGeom `json:"geom_s"`
	RootS NodeRef  `json:"root_s"`

	// HeapLens[i] is the element count of bodies shard i: restore grows
	// the shard to it, and it slices an older container's heap region.
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

// captureEnv is the host stamp for the container header (nil if it
// does not encode).
func captureEnv() json.RawMessage {
	env, _ := json.Marshal(hostenv.Capture())
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
	cs := ckptState{
		Options:    s.o,
		StepsDone:  s.stepsDone,
		StepPhases: s.stepTab.rows,
		Runtime:    s.rt.CaptureState(),
		Threads:    make([]ckptThread, len(s.ts)),
	}
	for i, st := range s.ts {
		cs.Threads[i] = ckptThread{
			Step:         st.step,
			NOwned:       len(st.myBodies),
			Geom:         st.geom,
			Inter:        st.inter,
			Migrated:     st.migrated,
			OwnedTot:     st.ownedTot,
			BufCopies:    st.bufCopies,
			CellsCopied:  st.cellsCopied,
			CellsAliased: st.cellsAliased,
			TreeLocalT:   st.treeLocalT,
			TreeMergeT:   st.treeMergeT,
			Phases:       st.phases,
			PhaseComm:    st.phaseComm,
		}
	}
	regions := s.eng.capture(&cs)
	state, err := json.Marshal(&cs)
	if err != nil {
		return nil, fmt.Errorf("core: encode checkpoint state: %w", err)
	}
	return append([]arena.NamedRegion{{Name: regState, Data: state}}, regions...), nil
}

const refBytes = int(unsafe.Sizeof(upc.Ref{}))

func appendRefBytes(buf []byte, refs []upc.Ref) []byte {
	if len(refs) == 0 {
		return buf
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&refs[0])), len(refs)*refBytes)
	return append(buf, b...)
}

// refAt is record j of a refs region.
func refAt(refs []byte, j int) upc.Ref {
	return *(*upc.Ref)(unsafe.Pointer(&refs[j*refBytes]))
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
	// A genuine payload holds at least n body records (bodies or heap):
	// that bounds what New allocates before the regions are checked.
	if n := cs.Options.Bodies; int64(n) > c.Header.PayloadLen/int64(bodyBytes) {
		return nil, badCheckpoint(fmt.Errorf("core: checkpoint claims %d bodies in a %d-byte payload", n, c.Header.PayloadLen))
	}
	s, err := New(cs.Options)
	if err != nil {
		return nil, fmt.Errorf("core: construct restore target: %w", err)
	}
	if err := s.restoreState(&cs, c); err != nil {
		s.Release()
		return nil, badCheckpoint(err)
	}
	return s, nil
}

// badCheckpoint marks err as the checkpoint container's fault. Callers
// that restore on behalf of someone else (bhserve's POST /sims/restore)
// separate uploader mistakes from server-side construction failures
// with errors.Is(err, ErrBadCheckpoint).
func badCheckpoint(err error) error { return &marked{ErrBadCheckpoint, err} }

// restoreState overwrites the freshly constructed Sim's state with the
// captured snapshot: the Sim's own (runtime, step counts, step-phase
// table, each thread's counters), then the engine's from the decoded
// owned bodies. The fresh session has run setup and parked before step 0.
func (s *Sim) restoreState(cs *ckptState, c *arena.Checkpoint) error {
	p := s.rt.Threads()
	if len(cs.Threads) != p {
		return fmt.Errorf("core: checkpoint carries %d thread states for a %d-thread machine", len(cs.Threads), p)
	}
	if cs.StepsDone < 0 || cs.StepsDone > s.o.Steps {
		return fmt.Errorf("core: checkpoint at step %d outside the configured %d-step schedule", cs.StepsDone, s.o.Steps)
	}
	rows, err := stepRows(cs)
	if err != nil {
		return err
	}
	bodies, err := ownedBodies(c, cs)
	if err != nil {
		return err
	}
	s.start()
	for _, row := range rows {
		s.stepTab.rows = append(s.stepTab.rows, row)
		s.stepTab.sum.Add(row)
	}
	if err := s.rt.RestoreState(cs.Runtime); err != nil {
		return err
	}
	for i, st := range s.ts {
		tc := &cs.Threads[i]
		st.step, st.geom = tc.Step, tc.Geom
		st.inter, st.migrated, st.ownedTot = tc.Inter, tc.Migrated, tc.OwnedTot
		st.bufCopies, st.cellsCopied, st.cellsAliased = tc.BufCopies, tc.CellsCopied, tc.CellsAliased
		st.treeLocalT, st.treeMergeT = tc.TreeLocalT, tc.TreeMergeT
		st.phases, st.phaseComm = tc.Phases, tc.PhaseComm
	}
	if err := s.eng.restore(cs, c, bodies); err != nil {
		return err
	}
	s.stepsDone = cs.StepsDone
	return nil
}

// stepRows is a container's step-phase table, one row per measured step
// done: its step_phases, or in an older container, which has none, every
// thread's step_ph reduced as stepOnce reduces them.
func stepRows(cs *ckptState) ([]PhaseTimes, error) {
	measured := max(cs.StepsDone-cs.Options.Warmup, 0)
	rows := cs.StepPhases
	if rows == nil {
		for i, tc := range cs.Threads {
			if len(tc.StepPh) != measured {
				return nil, fmt.Errorf("core: checkpoint thread %d carries %d step-phase rows at step %d, want %d", i, len(tc.StepPh), cs.StepsDone, measured)
			}
		}
		rows = make([]PhaseTimes, measured)
		for _, tc := range cs.Threads {
			for k, r := range tc.StepPh {
				rows[k].MaxInto(r)
			}
		}
	}
	if len(rows) != measured {
		return nil, fmt.Errorf("core: checkpoint carries %d step-phase rows at step %d, want %d", len(rows), cs.StepsDone, measured)
	}
	return rows, nil
}

// ownedBodies decodes a container's n owned bodies in capture order
// (thread order, each thread's n_owned in turn): the bodies region, or
// an older container's refs resolved, in the same order, into its heap
// region's shards. Either way the owned counts must sum to n, the IDs
// be a permutation of 0..n-1 and every field be finite.
func ownedBodies(c *arena.Checkpoint, cs *ckptState) ([]nbody.Body, error) {
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
		data, _ = c.Region(regRefs)
		name, rec = regRefs, refBytes
	}
	if len(data)%rec != 0 || len(data)/rec != n {
		return nil, fmt.Errorf("core: checkpoint %s region holds %d bytes, want %d records of %d", name, len(data), n, rec)
	}
	out := make([]nbody.Body, n)
	dst := bodyRecordBytes(out)
	if ok {
		copy(dst, data)
	} else {
		heap, _ := c.Region(regHeap)
		refs := data
		shard := make([]int, len(cs.HeapLens)+1) // byte offsets in heap
		for i, l := range cs.HeapLens {
			if l < 0 || int(l) > (len(heap)-shard[i])/bodyBytes {
				return nil, fmt.Errorf("core: checkpoint heap region truncated (shard %d holds %d bodies)", i, l)
			}
			shard[i+1] = shard[i] + int(l)*bodyBytes
		}
		for j := range out {
			r := refAt(refs, j)
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
		if !finiteBody(&out[i]) {
			return nil, fmt.Errorf("core: checkpoint body %d has a NaN or infinite field", out[i].ID)
		}
	}
	return out, nil
}
