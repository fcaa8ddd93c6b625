// Package durable implements a crash-safe persistent backend for the
// cube store: an append-only write-ahead log of commit records
// (length-prefixed, CRC32C-checksummed, fsync'd per commit, concurrent
// committers sharing one fsync) plus segment snapshots of the whole state
// with compaction, wrapped around the in-memory store.Store so zero-copy
// frozen-cube reads and GetAsOf/generation MVCC semantics are preserved
// exactly. Log and segments hold a new version of a cube as the delta
// from the version it supersedes wherever that is small, and the cube in
// full otherwise: a commit costs O(change), a segment O(state + changes).
//
// Recovery (Open) loads the newest verifiable snapshot, replays the WAL
// tail, truncates at the first torn or corrupt record, and resumes the
// generation counter — the reopened store is always a prefix of the
// committed generations, never a torn cube. In the spirit of
// Exchange-Repairs, a corrupt newest snapshot degrades to the previous
// consistent one rather than failing the open.
//
// All file I/O goes through the FS interface so tests (and the
// fault-injection harness in internal/faults) can interpose short
// writes, fsync failures and crash-at-offset truncation.
package durable

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the subset of *os.File the WAL and snapshot writers need.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's contents to stable storage. A commit is
	// durable only after Sync returns nil.
	Sync() error
}

// FS abstracts the filesystem operations of the durable store. OSFS is
// the real implementation; internal/faults wraps any FS with injected
// disk faults.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// ReadDir lists the file names (not full paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate cuts the file to size bytes (recovery chops torn tails).
	Truncate(name string, size int64) error
	// MkdirAll creates the directory and any parents.
	MkdirAll(dir string) error
	// SyncDir fsyncs a directory, making renames and creates durable.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// Create implements FS.
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

// Open implements FS.
func (OSFS) Open(name string) (File, error) { return os.Open(name) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
