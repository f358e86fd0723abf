// Package durable is the one place a file is made crash-safe: the
// filesystem seam every durable write goes through, and Publish, the
// atomic temp-file → fsync → rename → directory-fsync sequence shared by
// the checkpoint store (internal/store) and the single-file checkpoint
// writer (arena.WriteFileCheckpoint, behind bhrun -checkpoint).
package durable

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// FS is the narrow filesystem surface durable writers go through. Every
// disk operation the durability argument depends on — temp-file
// creation, data fsync, atomic rename, directory fsync — is a method
// here, so tests can inject EIO/ENOSPC, truncate writes, or "crash"
// between any two calls and prove the invariants hold. Production uses
// OSFS.
type FS interface {
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string, perm os.FileMode) error
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// ReadFile returns the full contents of path.
	ReadFile(path string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// ReadDir lists dir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory itself, making completed renames and
	// removals durable (data fsync alone does not persist the directory
	// entry pointing at it).
	SyncDir(dir string) error
}

// File is one writable file handle handed out by FS.Create.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage.
	Sync() error
	Close() error
}

// OSFS is the production FS: the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Publish atomically replaces final with the bytes write produces: they
// go to tmp (same directory as final), are fsynced, and only then renamed
// over final, followed by an fsync of the directory. When Publish returns
// nil the complete file is durable at final; if the writer crashes or the
// disk fails at any earlier point, final either does not exist or still
// holds its previous complete contents — a truncated or torn file can
// never appear there. A failed Publish removes tmp (best effort); a crash
// may leave it behind, dead weight that the next Publish to the same tmp
// truncates (or that the store sweeps at Open).
//
// A SyncDir failure after the rename is still a failure: the file is
// visible but its directory entry may not survive a power loss.
func Publish(fsys FS, tmp, final string, write func(io.Writer) error) error {
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("create temp %s: %w", tmp, err)
	}
	err = write(f)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("write temp %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("publish %s: %w", final, err)
	}
	if err := fsys.SyncDir(filepath.Dir(final)); err != nil {
		return fmt.Errorf("sync dir after publishing %s: %w", final, err)
	}
	return nil
}
