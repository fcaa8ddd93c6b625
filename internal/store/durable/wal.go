package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sync"

	"exlengine/internal/obs"
)

// WAL file layout:
//
//	header:  8-byte magic "EXLWAL01" + 8-byte little-endian base generation
//	records: repeated [4-byte LE payload length][4-byte LE CRC32C(payload)][payload]
//
// The base generation is the store generation the log starts after: the
// first commit record in the file is generation base+1. A record is
// committed once its bytes are fsync'd; recovery accepts the longest
// prefix of well-formed records and truncates the rest (a torn tail is
// the expected shape of a crash, not an error).
var walMagic = [8]byte{'E', 'X', 'L', 'W', 'A', 'L', '0', '1'}

const (
	walHeaderSize   = 16
	recordHeaderLen = 8
	// maxRecordSize bounds a record's claimed length so a corrupt length
	// field cannot drive a multi-gigabyte allocation during recovery.
	maxRecordSize = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks a record rejected during replay; recovery truncates the
// log at the record's start offset.
var errTorn = errors.New("durable: torn or corrupt WAL record")

// walWriter appends framed records to an open WAL file and makes them
// durable with per-commit fsync, shared: committers that append while a
// leader is in its fsync wait for it, and the next leader's one fsync
// covers them all.
type walWriter struct {
	f       File
	metrics *obs.Registry
	// inflight counts commits between append and fsync completion;
	// compaction drains it before closing a retired WAL.
	inflight sync.WaitGroup

	mu  sync.Mutex // guards f writes and off
	off int64      // bytes appended (including header)

	sync struct {
		sync.Mutex
		cond    *sync.Cond
		syncing bool  // a leader is currently in fsync
		synced  int64 // bytes made durable so far
		err     error // sticky: a failed fsync poisons the writer
	}

	fsyncs  int64 // fsync calls issued (durability metric)
	written int64 // record bytes appended (durability metric)
}

// newWALWriter creates the WAL file, writes its header and fsyncs the
// directory: a commit's fsync makes the file's bytes durable, not the
// directory entry that leads to them, so the entry must be on disk before
// the first commit on this file can be acknowledged. The header is not
// fsync'd on its own: the first commit's fsync covers it.
func newWALWriter(fs FS, path string, baseGen uint64, metrics *obs.Registry) (*walWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:], walMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], baseGen)
	if err := writeFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	w := &walWriter{f: f, metrics: metrics, off: walHeaderSize}
	w.sync.cond = sync.NewCond(&w.sync.Mutex)
	return w, nil
}

// writeFull writes all of b, turning a silent short write into an error:
// a File that reports n < len(b) with a nil error (possible under fault
// injection) must not be treated as success.
func writeFull(f File, b []byte) error {
	n, err := f.Write(b)
	if err == nil && n < len(b) {
		err = fmt.Errorf("%w (%d of %d bytes)", io.ErrShortWrite, n, len(b))
	}
	return err
}

// append frames and writes one record, returning the end offset the
// caller must pass to commit. It does not fsync.
func (w *walWriter) append(payload []byte) (int64, error) {
	if len(payload) > maxRecordSize {
		return 0, fmt.Errorf("durable: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordSize)
	}
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := writeFull(w.f, hdr[:]); err != nil {
		return 0, err
	}
	if err := writeFull(w.f, payload); err != nil {
		return 0, err
	}
	w.off += int64(recordHeaderLen + len(payload))
	w.written += int64(recordHeaderLen + len(payload))
	return w.off, nil
}

// commit blocks until every byte up to end is durable. Concurrent
// committers share fsyncs: one leader syncs on behalf of everyone whose
// end offset its fsync covers. A failed fsync is sticky —
// after it, the on-disk state of the tail is unknown, so every later
// commit fails until the store is reopened and recovery re-establishes a
// consistent prefix.
func (w *walWriter) commit(end int64) error {
	s := &w.sync
	s.Lock()
	for {
		if s.err != nil {
			err := s.err
			s.Unlock()
			return err
		}
		if s.synced >= end {
			s.Unlock()
			return nil
		}
		if !s.syncing {
			break
		}
		s.cond.Wait()
	}
	s.syncing = true
	s.Unlock()

	w.mu.Lock()
	target := w.off
	w.mu.Unlock()
	err := w.f.Sync()
	w.metrics.Counter(obs.MetricStoreFsyncs).Inc()

	s.Lock()
	w.fsyncs++
	s.syncing = false
	if err != nil {
		s.err = fmt.Errorf("durable: wal fsync: %w", err)
		err = s.err
	} else {
		s.synced = target
	}
	s.cond.Broadcast()
	s.Unlock()
	return err
}

// stats returns the bytes appended and fsyncs issued so far.
func (w *walWriter) stats() (written, fsyncs int64) {
	w.mu.Lock()
	written = w.written
	w.mu.Unlock()
	w.sync.Lock()
	fsyncs = w.fsyncs
	w.sync.Unlock()
	return written, fsyncs
}

// size returns the current file size in bytes.
func (w *walWriter) size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// close fsyncs and closes the file.
func (w *walWriter) close() error {
	err := w.commit(w.size())
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// walScan is the result of reading one WAL file during recovery.
type walScan struct {
	baseGen   uint64
	records   [][]byte // well-formed record payloads, in append order
	offsets   []int64  // start offset of each record in the file
	validSize int64    // bytes up to the end of the last valid record
	torn      bool     // a torn/corrupt record (or tail) was dropped
}

// readWAL reads a WAL file, stopping at the first torn or corrupt
// record. It returns the valid prefix; the caller truncates the file to
// validSize if torn bytes follow.
func readWAL(fs FS, path string) (*walScan, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(raw) < walHeaderSize || [8]byte(raw[:8]) != walMagic {
		return nil, fmt.Errorf("durable: %s is not a WAL file", path)
	}
	scan := &walScan{
		baseGen:   binary.LittleEndian.Uint64(raw[8:16]),
		validSize: walHeaderSize,
	}
	off := int64(walHeaderSize)
	for {
		rest := raw[off:]
		if len(rest) == 0 {
			return scan, nil
		}
		if len(rest) < recordHeaderLen {
			scan.torn = true
			return scan, nil
		}
		n := int64(binary.LittleEndian.Uint32(rest[:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxRecordSize || int64(len(rest))-recordHeaderLen < n {
			scan.torn = true
			return scan, nil
		}
		payload := rest[recordHeaderLen : recordHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != sum {
			scan.torn = true
			return scan, nil
		}
		scan.records = append(scan.records, payload)
		scan.offsets = append(scan.offsets, off)
		off += recordHeaderLen + n
		scan.validSize = off
	}
}
