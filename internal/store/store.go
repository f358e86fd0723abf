// Package store is the durable, content-addressed checkpoint store
// behind bhserve's crash safety (DESIGN.md §12.5). Entries are checkpoint
// containers (internal/arena format) keyed by the simulation's
// canonical Options.Key() plus the step they capture; the newest valid
// entry per key is what startup recovery restores.
//
// Durability argument, in order:
//
//  1. Put publishes through durable.Publish: the container goes to a
//     hidden temp name in the store directory, is fsynced, renamed to
//     its final name, and the directory is fsynced. A crash at any point
//     leaves either the previous state or the complete new entry — never
//     a torn container at a final name reachable by lookup.
//  2. Temp files left by a crash mid-write are swept (deleted) when the
//     store is next opened; they were never visible to lookups.
//  3. Lookups validate every candidate with arena.ReadCheckpoint
//     (magic, version, header shape, region bounds, payload CRC) and
//     check the header's key/step against the entry's name before
//     returning it. An entry that fails validation — a torn file from a
//     crashed fsync-less writer, bit rot, a crafted container — is
//     quarantined (moved aside, never deleted) and the next-newest
//     entry is tried: corruption degrades recovery by one checkpoint
//     interval, it never crashes the server or hides older good state.
//  4. Retention: Put keeps the newest Keep entries per key and removes
//     the rest, so a long-running session's periodic checkpoints don't
//     grow the store without bound.
//
// The Store serializes all mutation internally; Put/lookup/GC are safe
// from any goroutine.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"upcbh/internal/arena"
	"upcbh/internal/durable"
)

// ErrNotFound reports that no valid entry exists for the requested key
// (or key+step).
var ErrNotFound = errors.New("store: no valid checkpoint")

const (
	entrySuffix   = ".ckpt"
	tmpPrefix     = ".tmp-"
	quarantineDir = "quarantine"
	keyHashLen    = 32 // hex chars of the sha256 key digest in entry names
)

// Options configures a Store. Zero values mean defaults.
type Options struct {
	// FS is the filesystem seam (default durable.OSFS). Tests inject
	// faults here.
	FS durable.FS
	// Keep is how many newest entries are retained per key (default 2):
	// the newest is what recovery wants, one older survives as a fallback
	// should the newest be quarantined.
	Keep int
	// Logf receives sweep/quarantine/GC notices; nil silences them.
	Logf func(format string, args ...any)
}

// Store is a durable checkpoint store rooted at one directory.
type Store struct {
	dir  string
	fs   durable.FS
	keep int
	logf func(string, ...any)

	mu    sync.Mutex
	index map[string][]int // key hash -> steps present, ascending
	seq   uint64           // temp-name uniquifier

	writes      uint64
	writeFails  uint64
	gcRemoved   uint64
	quarantined uint64
	tmpSwept    uint64
	degraded    bool
	lastErr     string
}

// Entry is one recoverable checkpoint: the newest valid container of
// one key, as returned by NewestAll.
type Entry struct {
	Key  string
	Step int
	Data []byte
}

// Stats is the store's observability snapshot (surfaced in bhserve's
// GET /stats).
type Stats struct {
	Dir           string `json:"dir"`
	Keys          int    `json:"keys"`
	Entries       int    `json:"entries"`
	Writes        uint64 `json:"writes"`
	WriteFailures uint64 `json:"write_failures"`
	GCRemoved     uint64 `json:"gc_removed"`
	Quarantined   uint64 `json:"quarantined"`
	TmpSwept      uint64 `json:"tmp_swept"`
	Degraded      bool   `json:"degraded"`
	LastError     string `json:"last_error,omitempty"`
}

// Open opens (creating if needed) the store rooted at dir, sweeping
// temp files a previous process left behind mid-write and indexing the
// entries present.
func Open(dir string, o Options) (*Store, error) {
	if o.FS == nil {
		o.FS = durable.OSFS
	}
	if o.Keep <= 0 {
		o.Keep = 2
	}
	if err := o.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Store{dir: dir, fs: o.FS, keep: o.Keep, logf: o.Logf, index: make(map[string][]int)}
	ents, err := o.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case e.IsDir():
			// quarantine/ (or anything else): not an entry.
		case strings.HasPrefix(name, tmpPrefix):
			// A crash mid-Put: the temp was never renamed, so no lookup
			// ever saw it. Delete it.
			if err := o.FS.Remove(filepath.Join(dir, name)); err == nil {
				s.tmpSwept++
				s.log("swept temp file %s", name)
			}
		default:
			kh, step, ok := parseEntryName(name)
			if !ok {
				s.log("ignoring foreign file %s", name)
				continue
			}
			s.index[kh] = append(s.index[kh], step)
		}
	}
	for kh := range s.index {
		sort.Ints(s.index[kh])
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) log(format string, args ...any) {
	if s.logf != nil {
		s.logf("store: "+format, args...)
	}
}

func keyHash(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])[:keyHashLen]
}

func entryName(kh string, step int) string {
	return fmt.Sprintf("%s-%010d%s", kh, step, entrySuffix)
}

func parseEntryName(name string) (kh string, step int, ok bool) {
	base, found := strings.CutSuffix(name, entrySuffix)
	if !found || len(base) < keyHashLen+2 || base[keyHashLen] != '-' {
		return "", 0, false
	}
	kh = base[:keyHashLen]
	for _, c := range kh {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return "", 0, false
		}
	}
	n, err := strconv.Atoi(base[keyHashLen+1:])
	if err != nil || n < 0 {
		return "", 0, false
	}
	return kh, n, true
}

// Put publishes one checkpoint container for key at step: temp file,
// data fsync, rename to the final name, directory fsync — atomic
// against crashes at every point. On success superseded entries beyond
// the retention horizon are garbage-collected and a previously degraded
// store is marked healthy again; on failure the temp file is removed
// (best effort) and the store's previous entries are untouched.
func (s *Store) Put(key string, step int, data []byte) error {
	if step < 0 {
		return fmt.Errorf("store: negative step %d", step)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	kh := keyHash(key)
	s.seq++
	tmp := filepath.Join(s.dir, fmt.Sprintf("%s%s-%010d-%d", tmpPrefix, kh, step, s.seq))
	err := durable.Publish(s.fs, tmp, filepath.Join(s.dir, entryName(kh, step)), func(w io.Writer) error {
		_, err := bytes.NewReader(data).WriteTo(w) // a short write is io.ErrShortWrite
		return err
	})
	if err != nil {
		return s.failLocked(fmt.Errorf("store: %w", err))
	}
	steps := s.index[kh]
	if i := sort.SearchInts(steps, step); i == len(steps) || steps[i] != step {
		steps = append(steps, 0)
		copy(steps[i+1:], steps[i:])
		steps[i] = step
		s.index[kh] = steps
	}
	s.writes++
	s.degraded = false
	s.lastErr = ""
	s.gcLocked(kh)
	return nil
}

// failLocked records a write failure without marking the store
// degraded: degradation (give-up after retries) is the caller's call —
// the persister distinguishes transient from persistent failures.
func (s *Store) failLocked(err error) error {
	s.writeFails++
	s.lastErr = err.Error()
	return err
}

// SetDegraded marks the store degraded (persistent write failure:
// checkpoints are being dropped but sessions keep running in-memory).
// The next successful Put clears it.
func (s *Store) SetDegraded(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degraded = true
	if err != nil {
		s.lastErr = err.Error()
	}
}

// Degraded reports whether the store is in degraded mode.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// gcLocked enforces retention for one key: the newest keep entries
// stay, older ones are removed. Removal failures are logged and
// retried implicitly on the next Put.
func (s *Store) gcLocked(kh string) {
	steps := s.index[kh]
	for len(steps) > s.keep {
		victim := steps[0]
		path := filepath.Join(s.dir, entryName(kh, victim))
		if err := s.fs.Remove(path); err != nil {
			s.log("gc of %s failed: %v", path, err)
			return
		}
		steps = steps[1:]
		s.gcRemoved++
	}
	s.index[kh] = steps
}

// Has reports whether an entry for key at step exists (by name only —
// no validation; use Get to both check and read).
func (s *Store) Has(key string, step int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	steps := s.index[keyHash(key)]
	i := sort.SearchInts(steps, step)
	return i < len(steps) && steps[i] == step
}

// Get returns the validated container for key at exactly step, or
// ErrNotFound. An entry that fails validation is quarantined.
func (s *Store) Get(key string, step int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kh := keyHash(key)
	steps := s.index[kh]
	if i := sort.SearchInts(steps, step); i < len(steps) && steps[i] == step {
		if data, ok := s.readValidLocked(kh, step, key); ok {
			return data, nil
		}
	}
	return nil, fmt.Errorf("%w for key %q at step %d", ErrNotFound, key, step)
}

// Newest returns the newest valid container for key and the step it
// captures, or ErrNotFound. Invalid candidates are quarantined and
// older entries tried — corruption costs one checkpoint interval, not
// the session.
func (s *Store) Newest(key string) ([]byte, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kh := keyHash(key)
	for {
		steps := s.index[kh]
		if len(steps) == 0 {
			return nil, 0, fmt.Errorf("%w for key %q", ErrNotFound, key)
		}
		step := steps[len(steps)-1]
		if data, ok := s.readValidLocked(kh, step, key); ok {
			return data, step, nil
		}
	}
}

// NewestAll returns the newest valid container of every key in the
// store (the startup-recovery set), sorted by key for deterministic
// admission order. Keys whose every entry fails validation contribute
// nothing (each failure is quarantined).
func (s *Store) NewestAll() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Entry
	for kh := range s.index {
		for {
			steps := s.index[kh]
			if len(steps) == 0 {
				break
			}
			step := steps[len(steps)-1]
			data, key, ok := s.readAnyKeyLocked(kh, step)
			if ok {
				out = append(out, Entry{Key: key, Step: step, Data: data})
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Quarantine moves the entry for key at step aside (e.g. after a
// deeper validation layer — core.Restore — rejected a container the
// format-level checks accepted). Missing entries are a no-op.
func (s *Store) Quarantine(key string, step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarantineLocked(keyHash(key), step)
}

// readValidLocked reads and validates one entry, checking that the
// container's header names exactly the key the caller asked about.
// Invalid entries are quarantined and (false) returned.
func (s *Store) readValidLocked(kh string, step int, key string) ([]byte, bool) {
	data, gotKey, ok := s.readAnyKeyLocked(kh, step)
	if !ok {
		return nil, false
	}
	if gotKey != key {
		// Hash-prefix collision or a renamed entry: not the caller's run.
		s.log("entry %s carries key %q, wanted %q: quarantining", entryName(kh, step), gotKey, key)
		s.quarantineLocked(kh, step)
		return nil, false
	}
	return data, true
}

// readAnyKeyLocked reads and validates one entry, returning the key its
// header carries (which must hash to the entry's name). Invalid entries
// are quarantined.
func (s *Store) readAnyKeyLocked(kh string, step int) (data []byte, key string, ok bool) {
	name := entryName(kh, step)
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		s.log("read %s: %v: quarantining", name, err)
		s.quarantineLocked(kh, step)
		return nil, "", false
	}
	c, err := arena.ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		s.log("validate %s: %v: quarantining", name, err)
		s.quarantineLocked(kh, step)
		return nil, "", false
	}
	if c.Header.Step != step || keyHash(c.Header.Key) != kh {
		s.log("entry %s header says key %q step %d: quarantining", name, c.Header.Key, c.Header.Step)
		s.quarantineLocked(kh, step)
		return nil, "", false
	}
	return raw, c.Header.Key, true
}

// quarantineLocked moves one entry into quarantine/ (falling back to
// removal if the move fails) and drops it from the index.
func (s *Store) quarantineLocked(kh string, step int) {
	steps := s.index[kh]
	i := sort.SearchInts(steps, step)
	if i == len(steps) || steps[i] != step {
		return
	}
	s.index[kh] = append(steps[:i], steps[i+1:]...)
	name := entryName(kh, step)
	src := filepath.Join(s.dir, name)
	moved := false
	if err := s.fs.MkdirAll(filepath.Join(s.dir, quarantineDir), 0o755); err == nil {
		moved = s.fs.Rename(src, filepath.Join(s.dir, quarantineDir, name)) == nil
	}
	if !moved {
		_ = s.fs.Remove(src)
	}
	s.quarantined++
	s.log("quarantined %s", name)
}

// Stats returns the store's observability snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := 0
	for _, steps := range s.index {
		entries += len(steps)
	}
	return Stats{
		Dir:           s.dir,
		Keys:          len(s.index),
		Entries:       entries,
		Writes:        s.writes,
		WriteFailures: s.writeFails,
		GCRemoved:     s.gcRemoved,
		Quarantined:   s.quarantined,
		TmpSwept:      s.tmpSwept,
		Degraded:      s.degraded,
		LastError:     s.lastErr,
	}
}
