package main

import (
	"strings"
	"sync"
	"time"

	"exlengine/internal/store/durable"
)

// fsCounts is what the durable store did to the disk, seen from below.
type fsCounts struct {
	WriteBytes    int64
	WriteCalls    int64
	Fsyncs        int64 // file and directory syncs
	SnapshotBytes int64 // bytes written to segment snapshots
	Compactions   int64 // segment snapshots published (renamed into place)
	CompactTime   time.Duration
}

func (a fsCounts) minus(b fsCounts) fsCounts {
	return fsCounts{
		WriteBytes:    a.WriteBytes - b.WriteBytes,
		WriteCalls:    a.WriteCalls - b.WriteCalls,
		Fsyncs:        a.Fsyncs - b.Fsyncs,
		SnapshotBytes: a.SnapshotBytes - b.SnapshotBytes,
		Compactions:   a.Compactions - b.Compactions,
		CompactTime:   a.CompactTime - b.CompactTime,
	}
}

// countingFS wraps the real filesystem and counts writes and syncs. It
// also times compactions from outside: a compaction runs synchronously
// right after a commit's WAL fsync returns and ends with the directory sync
// that publishes the new segment, so the time from the last WAL fsync to
// that directory sync is the compaction (snapshot encoding included).
type countingFS struct {
	durable.OSFS
	mu          sync.Mutex
	c           fsCounts
	lastWALSync time.Time
	publishing  bool // a segment was renamed into place; its SyncDir ends the compaction
}

func (fs *countingFS) counts() fsCounts {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.c
}

func isSegment(name string) bool {
	return strings.HasSuffix(name, ".snap") || strings.HasSuffix(name, ".snap.tmp")
}

func (fs *countingFS) Create(name string) (durable.File, error) {
	f, err := fs.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs, segment: isSegment(name)}, nil
}

func (fs *countingFS) Rename(oldname, newname string) error {
	err := fs.OSFS.Rename(oldname, newname)
	if err == nil && isSegment(newname) {
		fs.mu.Lock()
		fs.publishing = true
		fs.mu.Unlock()
	}
	return err
}

func (fs *countingFS) SyncDir(dir string) error {
	err := fs.OSFS.SyncDir(dir)
	fs.mu.Lock()
	fs.c.Fsyncs++
	if fs.publishing {
		fs.publishing = false
		fs.c.Compactions++
		if !fs.lastWALSync.IsZero() {
			fs.c.CompactTime += time.Since(fs.lastWALSync)
		}
	}
	fs.mu.Unlock()
	return err
}

type countingFile struct {
	durable.File
	fs      *countingFS
	segment bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.c.WriteCalls++
	f.fs.c.WriteBytes += int64(n)
	if f.segment {
		f.fs.c.SnapshotBytes += int64(n)
	}
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	err := f.File.Sync()
	f.fs.mu.Lock()
	f.fs.c.Fsyncs++
	if !f.segment {
		f.fs.lastWALSync = time.Now()
	}
	f.fs.mu.Unlock()
	return err
}
