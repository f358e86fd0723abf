package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"upcbh/internal/arena"
)

// container builds a small but fully valid checkpoint container for
// key at step: lookups validate with arena.ReadCheckpoint, so test
// entries must pass the real format checks.
// has reports whether the index names an entry for key at step (by
// name only: Get both checks and reads).
func has(s *Store, key string, step int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	steps := s.index[keyHash(key)]
	i := sort.SearchInts(steps, step)
	return i < len(steps) && steps[i] == step
}

func container(t *testing.T, key string, step int) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := arena.WriteCheckpoint(&buf, key, step, nil, []arena.NamedRegion{
		{Name: "state", Data: []byte(fmt.Sprintf(`{"key":%q,"step":%d}`, key, step))},
		{Name: "heap", Data: bytes.Repeat([]byte{0xAB}, 100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openTest(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	if o.Logf == nil {
		o.Logf = t.Logf
	}
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// listDir returns the store directory's file names (non-recursive).
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestPutNewest: the round trip — entries come back byte-identical,
// Newest picks the highest step, and an older step stays indexed.
func TestPutNewest(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Keep: 10})
	const key = "n=512;steps=8;test-key"
	c2, c5 := container(t, key, 2), container(t, key, 5)
	if err := s.Put(key, 2, c2); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, 5, c5); err != nil {
		t.Fatal(err)
	}

	got, step, err := s.Newest(key)
	if err != nil {
		t.Fatal(err)
	}
	if step != 5 || !bytes.Equal(got, c5) {
		t.Fatalf("Newest = step %d (%d bytes), want step 5 byte-identical", step, len(got))
	}
	if !has(s, key, 2) || has(s, key, 3) {
		t.Fatalf("Has: got (2)=%v (3)=%v", has(s, key, 2), has(s, key, 3))
	}
	if _, _, err := s.Newest("some-other-key"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Newest(other) = %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.Writes != 2 || st.Keys != 1 || st.Entries != 2 || st.Degraded {
		t.Fatalf("stats = %+v", st)
	}
	// Quarantining the newest leaves the older entry, byte-identical.
	s.Quarantine(key, 5)
	if got, step, err := s.Newest(key); err != nil || step != 2 || !bytes.Equal(got, c2) {
		t.Fatalf("Newest after quarantining step 5 = step %d (%v), want step 2 byte-identical", step, err)
	}
}

// TestRetentionGC: Put keeps the newest Keep entries per key and
// removes the rest from disk.
func TestRetentionGC(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Keep: 2})
	const key = "gc-key"
	for step := 1; step <= 5; step++ {
		if err := s.Put(key, step, container(t, key, step)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Entries != 2 || st.GCRemoved != 3 {
		t.Fatalf("after 5 puts with Keep=2: %+v", st)
	}
	if _, _, err := s.Newest(key); err != nil {
		t.Fatal(err)
	}
	if has(s, key, 1) || has(s, key, 3) || !has(s, key, 4) || !has(s, key, 5) {
		t.Fatal("retention kept the wrong steps, want 4 and 5")
	}
	names := listDir(t, dir)
	if len(names) != 2 {
		t.Fatalf("directory holds %v, want exactly the 2 retained entries", names)
	}

	// A put older than the retention horizon is not written at all:
	// retention would delete it at once.
	dir = t.TempDir()
	s = openTest(t, dir, Options{Keep: 2})
	for _, step := range []int{4, 5, 2} {
		if err := s.Put(key, step, container(t, key, step)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Writes != 2 || st.GCRemoved != 0 {
		t.Fatalf("puts at steps 4, 5, 2 with Keep=2: %+v, want 2 writes and no GC", st)
	}
	if has(s, key, 2) || !has(s, key, 4) || !has(s, key, 5) {
		t.Fatal("retention kept the wrong steps, want 4 and 5")
	}
	if names := listDir(t, dir); len(names) != 2 {
		t.Fatalf("directory holds %v, want exactly the 2 retained entries and no temp file", names)
	}
}

// TestReopenIndexes: a fresh Open over an existing directory serves
// the entries a previous Store published.
func TestReopenIndexes(t *testing.T) {
	dir := t.TempDir()
	const keyA, keyB = "key-a", "key-b"
	s1 := openTest(t, dir, Options{})
	for _, put := range []struct {
		key  string
		step int
	}{{keyA, 3}, {keyA, 6}, {keyB, 1}} {
		if err := s1.Put(put.key, put.step, container(t, put.key, put.step)); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openTest(t, dir, Options{})
	if _, step, err := s2.Newest(keyA); err != nil || step != 6 {
		t.Fatalf("reopened Newest(keyA) = step %d, %v", step, err)
	}
	all := s2.NewestAll()
	if len(all) != 2 {
		t.Fatalf("NewestAll = %d entries, want 2", len(all))
	}
	if all[0].Key != keyA || all[0].Step != 6 || all[1].Key != keyB || all[1].Step != 1 {
		t.Fatalf("NewestAll = [{%s %d} {%s %d}]", all[0].Key, all[0].Step, all[1].Key, all[1].Step)
	}
}

// TestCorruptEntryQuarantined: a torn/corrupt final file (the state a
// crash leaves when a non-atomic writer was interrupted, or bit rot)
// is quarantined at lookup and the next-newest valid entry is served.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Keep: 10})
	const key = "quarantine-key"
	good := container(t, key, 2)
	if err := s.Put(key, 2, good); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, 7, container(t, key, 7)); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest entry in place: flip a payload byte (CRC breaks)
	// on one run of the test, truncate on a second pattern.
	name := entryName(keyHash(key), 7)
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range [][]byte{
		append(append([]byte{}, raw[:len(raw)-1]...), raw[len(raw)-1]^0xFF),
		raw[:len(raw)/2],
	} {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		// Re-open so the index includes step 7 again after the first
		// quarantine pass.
		s := openTest(t, dir, Options{Keep: 10})
		data, step, err := s.Newest(key)
		if err != nil {
			t.Fatal(err)
		}
		if step != 2 || !bytes.Equal(data, good) {
			t.Fatalf("Newest after corruption = step %d, want fallback to 2", step)
		}
		if s.Stats().Quarantined != 1 {
			t.Fatalf("stats = %+v, want 1 quarantined", s.Stats())
		}
		// The corrupt file is preserved under quarantine/, not deleted.
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
			t.Fatalf("quarantined file missing: %v", err)
		}
		// Put the corrupt bytes back at the final name for round two.
		if err := os.Remove(filepath.Join(dir, quarantineDir, name)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKeyMismatchQuarantined: an entry whose header carries a key that
// doesn't hash to its name (a renamed or crafted file) never serves.
func TestKeyMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	const key = "honest-key"
	if err := s.Put(key, 4, container(t, key, 4)); err != nil {
		t.Fatal(err)
	}
	// Rename the entry so its name claims a different key.
	const otherKey = "claimed-key"
	if err := os.Rename(
		filepath.Join(dir, entryName(keyHash(key), 4)),
		filepath.Join(dir, entryName(keyHash(otherKey), 4)),
	); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{})
	if _, _, err := s2.Newest(otherKey); !errors.Is(err, ErrNotFound) {
		t.Fatalf("renamed entry served under the wrong key: %v", err)
	}
	if s2.Stats().Quarantined != 1 {
		t.Fatalf("stats = %+v", s2.Stats())
	}
}

// TestTmpSweep: temp files from a crashed writer are deleted at Open
// and never visible to lookups.
func TestTmpSweep(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"deadbeef-0000000001-1"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	if st := s.Stats(); st.TmpSwept != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for _, name := range listDir(t, dir) {
		if strings.HasPrefix(name, tmpPrefix) {
			t.Fatalf("temp file %s survived the sweep", name)
		}
	}
}

// TestForeignFilesIgnored: unrelated files in the store directory are
// left alone and never parsed as entries.
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	if st := s.Stats(); st.Entries != 0 || st.TmpSwept != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatalf("foreign file was removed: %v", err)
	}
}

// TestQuarantineAPI: the explicit Quarantine hook (used when
// core.Restore rejects a format-valid container) removes the entry
// from circulation.
func TestQuarantineAPI(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	const key = "deep-reject"
	if err := s.Put(key, 3, container(t, key, 3)); err != nil {
		t.Fatal(err)
	}
	s.Quarantine(key, 3)
	if _, _, err := s.Newest(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("quarantined entry still served: %v", err)
	}
	s.Quarantine(key, 3) // idempotent on a missing entry
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestParseEntryName(t *testing.T) {
	kh := keyHash("some key")
	name := entryName(kh, 42)
	gkh, step, ok := parseEntryName(name)
	if !ok || gkh != kh || step != 42 {
		t.Fatalf("parseEntryName(%q) = %q %d %v", name, gkh, step, ok)
	}
	for _, bad := range []string{
		"", "x.ckpt", "short-1.ckpt",
		kh + "-x.ckpt", kh + "-.ckpt", kh + "--1.ckpt",
		strings.Repeat("Z", keyHashLen) + "-0000000001.ckpt", // non-hex hash
		name + ".bak",
	} {
		if _, _, ok := parseEntryName(bad); ok {
			t.Fatalf("parseEntryName(%q) accepted", bad)
		}
	}
}

// TestConcurrentPutLookup: the store serializes internally — parallel
// writers and readers over overlapping keys race cleanly (run with
// -race).
func TestConcurrentPutLookup(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Keep: 2, Logf: func(string, ...any) {}})
	containers := make(map[string][][]byte)
	for g := 0; g < 2; g++ {
		key := fmt.Sprintf("key-%d", g)
		for step := 1; step <= 10; step++ {
			containers[key] = append(containers[key], container(t, key, step))
		}
	}
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			key := fmt.Sprintf("key-%d", g%2)
			var err error
			for step := 1; step <= 10 && err == nil; step++ {
				err = s.Put(key, step, containers[key][step-1])
			}
			done <- err
		}(g)
		go func(g int) {
			key := fmt.Sprintf("key-%d", g%2)
			for i := 0; i < 20; i++ {
				s.Newest(key)
				s.Stats()
			}
			done <- nil
		}(g)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Newest("key-0"); err != nil {
		t.Fatal(err)
	}
}
