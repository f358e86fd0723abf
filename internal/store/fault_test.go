package store

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"

	"upcbh/internal/durable"
)

// faultFS wraps durable.OSFS with deterministic, programmable failures.
// Every fault mode models a real storage failure:
//
//   - writeErr: Write returns it (EIO: failing device; ENOSPC: full disk)
//   - tornAfter: Write persists only the first tornAfter bytes, then
//     errors — a torn write
//   - failCreate / failRename / failSyncDir: the corresponding call errors
//   - crashBeforeRename: Rename does nothing and reports errCrashed —
//     the process "died" after writing the temp but before publishing it
type faultFS struct {
	mu                sync.Mutex
	writeErr          error
	tornAfter         int // -1 = disabled
	failCreate        error
	failRename        error
	failSyncDir       error
	crashBeforeRename bool

	writes  int
	renames int
}

var errCrashed = errors.New("faultfs: crashed before rename")

func newFaultFS() *faultFS { return &faultFS{tornAfter: -1} }

func (f *faultFS) set(mut func(*faultFS)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mut(f)
}

func (f *faultFS) MkdirAll(dir string, perm os.FileMode) error {
	return durable.OSFS.MkdirAll(dir, perm)
}
func (f *faultFS) ReadFile(path string) ([]byte, error)      { return durable.OSFS.ReadFile(path) }
func (f *faultFS) Remove(path string) error                  { return durable.OSFS.Remove(path) }
func (f *faultFS) ReadDir(dir string) ([]fs.DirEntry, error) { return durable.OSFS.ReadDir(dir) }

func (f *faultFS) Create(path string) (durable.File, error) {
	f.mu.Lock()
	err := f.failCreate
	f.mu.Unlock()
	if err != nil {
		return nil, &os.PathError{Op: "create", Path: path, Err: err}
	}
	real, ferr := durable.OSFS.Create(path)
	if ferr != nil {
		return nil, ferr
	}
	return &faultFile{fs: f, f: real, path: path}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	f.renames++
	crash, err := f.crashBeforeRename, f.failRename
	f.mu.Unlock()
	if crash {
		// The "crash": the temp file stays on disk, the final name never
		// appears. The caller's process would be gone; the test observes
		// the on-disk state a restart would find.
		return errCrashed
	}
	if err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return durable.OSFS.Rename(oldpath, newpath)
}

func (f *faultFS) SyncDir(dir string) error {
	f.mu.Lock()
	err := f.failSyncDir
	f.mu.Unlock()
	if err != nil {
		return &os.PathError{Op: "syncdir", Path: dir, Err: err}
	}
	return durable.OSFS.SyncDir(dir)
}

type faultFile struct {
	fs   *faultFS
	f    durable.File
	path string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	ff.fs.writes++
	werr, torn := ff.fs.writeErr, ff.fs.tornAfter
	ff.fs.mu.Unlock()
	if werr != nil {
		return 0, &os.PathError{Op: "write", Path: ff.path, Err: werr}
	}
	if torn >= 0 && torn < len(p) {
		n, _ := ff.f.Write(p[:torn])
		return n, &os.PathError{Op: "write", Path: ff.path, Err: syscall.EIO}
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error  { return ff.f.Sync() }
func (ff *faultFile) Close() error { return ff.f.Close() }

// putOK seeds one good entry so fault tests can prove prior state
// survives every failure mode.
func putOK(t *testing.T, s *Store, key string, step int, data []byte) {
	t.Helper()
	if err := s.Put(key, step, data); err != nil {
		t.Fatal(err)
	}
}

// checkIntact asserts the store still serves exactly the seeded entry —
// the "store stays readable after every fault" half of the acceptance
// criteria.
func checkIntact(t *testing.T, s *Store, key string, step int, data []byte) {
	t.Helper()
	got, gotStep, err := s.Newest(key)
	if err != nil {
		t.Fatalf("store unreadable after fault: %v", err)
	}
	if gotStep != step || !bytes.Equal(got, data) {
		t.Fatalf("fault perturbed existing entry: got step %d, want %d", gotStep, step)
	}
}

// checkNoTmp asserts no temp file leaked past a failed Put.
func checkNoTmp(t *testing.T, dir string) {
	t.Helper()
	for _, name := range listDir(t, dir) {
		if strings.HasPrefix(name, tmpPrefix) {
			t.Fatalf("failed Put leaked temp file %s", name)
		}
	}
}

// TestPutENOSPC: a full disk fails the Put with ENOSPC surfaced in the
// error chain (the persister keys degraded mode off it), leaves no temp
// file, and does not disturb existing entries.
func TestPutENOSPC(t *testing.T) {
	ffs := newFaultFS()
	dir := t.TempDir()
	s := openTest(t, dir, Options{FS: ffs})
	const key = "enospc-key"
	good := container(t, key, 1)
	putOK(t, s, key, 1, good)

	ffs.set(func(f *faultFS) { f.writeErr = syscall.ENOSPC })
	err := s.Put(key, 2, container(t, key, 2))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put under ENOSPC = %v, want ENOSPC in the chain", err)
	}
	ffs.set(func(f *faultFS) { f.writeErr = nil })
	checkIntact(t, s, key, 1, good)
	checkNoTmp(t, dir)
	if st := s.Stats(); st.WriteFailures != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// The disk recovers: the next Put succeeds and supersedes.
	putOK(t, s, key, 3, container(t, key, 3))
	if _, step, err := s.Newest(key); err != nil || step != 3 {
		t.Fatalf("post-recovery Newest = %d, %v", step, err)
	}
}

// TestPutEIO: a failing device errors the Put (transient per the
// persister's policy); the store remains intact and retryable.
func TestPutEIO(t *testing.T) {
	ffs := newFaultFS()
	dir := t.TempDir()
	s := openTest(t, dir, Options{FS: ffs})
	const key = "eio-key"
	good := container(t, key, 1)
	putOK(t, s, key, 1, good)

	ffs.set(func(f *faultFS) { f.writeErr = syscall.EIO })
	if err := s.Put(key, 2, container(t, key, 2)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put under EIO = %v", err)
	}
	ffs.set(func(f *faultFS) { f.writeErr = nil })
	checkIntact(t, s, key, 1, good)
	checkNoTmp(t, dir)
	// Retry after the transient clears.
	putOK(t, s, key, 2, container(t, key, 2))
}

// TestPutTornWrite: a write that persists only a prefix fails the Put;
// the torn bytes never reach a final name, so lookups are unaffected.
func TestPutTornWrite(t *testing.T) {
	ffs := newFaultFS()
	dir := t.TempDir()
	s := openTest(t, dir, Options{FS: ffs})
	const key = "torn-key"
	good := container(t, key, 1)
	putOK(t, s, key, 1, good)

	ffs.set(func(f *faultFS) { f.tornAfter = 16 })
	if err := s.Put(key, 2, container(t, key, 2)); err == nil {
		t.Fatal("torn write reported success")
	}
	ffs.set(func(f *faultFS) { f.tornAfter = -1 })
	checkIntact(t, s, key, 1, good)
	checkNoTmp(t, dir)
}

// TestPutCrashBeforeRename: the writer "dies" after the temp write but
// before publication. The final name never appears, the previous entry
// still serves, and a restart (re-Open) sweeps the orphaned temp.
func TestPutCrashBeforeRename(t *testing.T) {
	ffs := newFaultFS()
	dir := t.TempDir()
	s := openTest(t, dir, Options{FS: ffs})
	const key = "crash-key"
	good := container(t, key, 1)
	putOK(t, s, key, 1, good)

	ffs.set(func(f *faultFS) { f.crashBeforeRename = true })
	if err := s.Put(key, 2, container(t, key, 2)); !errors.Is(err, errCrashed) {
		t.Fatalf("Put = %v, want crash sentinel", err)
	}
	ffs.set(func(f *faultFS) { f.crashBeforeRename = false })
	checkIntact(t, s, key, 1, good)
	if s.Has(key, 2) {
		t.Fatal("unpublished entry visible in the index")
	}

	// The crashed Put's Remove cleanup also "didn't run" in a real crash;
	// simulate the worst case by planting a temp file, then prove restart
	// sweeps it and recovery sees only the published entry.
	if err := os.WriteFile(dir+"/"+tmpPrefix+"orphan-1", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{})
	if st := s2.Stats(); st.TmpSwept == 0 {
		t.Fatalf("restart did not sweep the orphaned temp: %+v", st)
	}
	checkIntact(t, s2, key, 1, good)
	checkNoTmp(t, dir)
}

// TestPutRenameFailure: a failing rename is a failed Put with the temp
// cleaned up.
func TestPutRenameFailure(t *testing.T) {
	ffs := newFaultFS()
	dir := t.TempDir()
	s := openTest(t, dir, Options{FS: ffs})
	const key = "rename-key"
	good := container(t, key, 1)
	putOK(t, s, key, 1, good)
	ffs.set(func(f *faultFS) { f.failRename = syscall.EIO })
	if err := s.Put(key, 2, container(t, key, 2)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put = %v", err)
	}
	ffs.set(func(f *faultFS) { f.failRename = nil })
	checkIntact(t, s, key, 1, good)
	checkNoTmp(t, dir)
}

// TestPutSyncDirFailure: when the directory fsync fails the entry may
// exist but is not durable — Put reports failure so the persister does
// not count the checkpoint as safe.
func TestPutSyncDirFailure(t *testing.T) {
	ffs := newFaultFS()
	s := openTest(t, t.TempDir(), Options{FS: ffs})
	const key = "syncdir-key"
	ffs.set(func(f *faultFS) { f.failSyncDir = syscall.EIO })
	if err := s.Put(key, 1, container(t, key, 1)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put = %v", err)
	}
	if st := s.Stats(); st.Writes != 0 || st.WriteFailures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDegradedLifecycle: SetDegraded flips the flag (and Stats), and
// the next successful Put clears it — the ENOSPC-recovers story.
func TestDegradedLifecycle(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	if s.Degraded() {
		t.Fatal("fresh store degraded")
	}
	s.SetDegraded(syscall.ENOSPC)
	if !s.Degraded() {
		t.Fatal("SetDegraded did not stick")
	}
	if st := s.Stats(); !st.Degraded || st.LastError == "" {
		t.Fatalf("stats = %+v", st)
	}
	const key = "heal-key"
	putOK(t, s, key, 1, container(t, key, 1))
	if s.Degraded() {
		t.Fatal("successful Put did not clear degraded mode")
	}
}

// TestCreateFailure: Create failing (e.g. the directory vanished)
// fails the Put cleanly.
func TestCreateFailure(t *testing.T) {
	ffs := newFaultFS()
	s := openTest(t, t.TempDir(), Options{FS: ffs})
	ffs.set(func(f *faultFS) { f.failCreate = syscall.EACCES })
	if err := s.Put("k", 1, container(t, "k", 1)); !errors.Is(err, syscall.EACCES) {
		t.Fatalf("Put = %v", err)
	}
}

// TestPublishFaults runs the fault matrix against durable.Publish itself,
// with the container stream writer as the payload — exactly what
// arena.WriteFileCheckpoint (bhrun -checkpoint) does on durable.OSFS. Under
// every fault the previously published file survives intact and the
// failed attempt's temp file is removed.
func TestPublishFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(*faultFS)
		want  error
	}{
		{name: "EIO", fault: func(f *faultFS) { f.writeErr = syscall.EIO }, want: syscall.EIO},
		{name: "ENOSPC", fault: func(f *faultFS) { f.writeErr = syscall.ENOSPC }, want: syscall.ENOSPC},
		{name: "torn write", fault: func(f *faultFS) { f.tornAfter = 16 }, want: syscall.EIO},
		{name: "crash before rename", fault: func(f *faultFS) { f.crashBeforeRename = true }, want: errCrashed},
		{name: "rename", fault: func(f *faultFS) { f.failRename = syscall.EIO }, want: syscall.EIO},
		{name: "create", fault: func(f *faultFS) { f.failCreate = syscall.EACCES }, want: syscall.EACCES},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			final, tmp := dir+"/run.ckpt", dir+"/run.ckpt.tmp"
			ffs := newFaultFS()
			publish := func(step int) error {
				return durable.Publish(ffs, tmp, final, func(w io.Writer) error {
					_, err := w.Write(container(t, "publish-key", step))
					return err
				})
			}
			if err := publish(1); err != nil {
				t.Fatal(err)
			}
			ffs.set(tc.fault)
			if err := publish(2); !errors.Is(err, tc.want) {
				t.Fatalf("Publish = %v, want %v in the chain", err, tc.want)
			}
			got, err := os.ReadFile(final)
			if err != nil || !bytes.Equal(got, container(t, "publish-key", 1)) {
				t.Fatalf("fault perturbed the published file (read err %v)", err)
			}
			if _, err := os.Stat(tmp); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("failed Publish left its temp file behind (stat err %v)", err)
			}
		})
	}
}
