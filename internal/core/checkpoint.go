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
//	         engine: Options, step counts, runtime clocks and scheduler
//	         counters, lock horizons and shared scalars (zero, and
//	         "locks":[], in a native container), every thread's state.
//	"heap"   simEngine: each body shard's allocated bytes [0, n), in
//	         thread order.
//	"refs"   simEngine: each thread's owned-body refs (raw upc.Ref bytes),
//	         in thread order.
//	"bodies" flatEngine: the n bodies as raw nbody.Body records in
//	         tree-slot order, thread i's the n_owned after threads
//	         0..i-1's. Older native containers carry heap + refs instead;
//	         their refs, resolved in thread order, list the same records.

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
		Options:   s.o,
		StepsDone: s.stepsDone,
		Runtime:   s.rt.CaptureState(),
		Threads:   make([]ckptThread, len(s.ts)),
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
			StepPh:       st.stepPh,
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
	// A genuine payload holds at least n body records (heap or bodies):
	// that bounds what New allocates before the engine checks regions.
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
// captured snapshot: the Sim's own (runtime, step counts, each thread's
// counters and phase tables), then the engine's. The fresh session has
// run setup and parked before step 0.
func (s *Sim) restoreState(cs *ckptState, c *arena.Checkpoint) error {
	p := s.rt.Threads()
	if len(cs.Threads) != p {
		return fmt.Errorf("core: checkpoint carries %d thread states for a %d-thread machine", len(cs.Threads), p)
	}
	if cs.StepsDone < 0 || cs.StepsDone > s.o.Steps {
		return fmt.Errorf("core: checkpoint at step %d outside the configured %d-step schedule", cs.StepsDone, s.o.Steps)
	}
	s.start()
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
		st.stepPh = append(st.stepPh[:0], tc.StepPh...)
	}
	if err := s.eng.restore(cs, c); err != nil {
		return err
	}
	s.stepsDone = cs.StepsDone
	return nil
}
