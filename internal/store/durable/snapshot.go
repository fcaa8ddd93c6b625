package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"time"

	"exlengine/internal/model"
	"exlengine/internal/store"
)

// Segment snapshot layout:
//
//	8-byte magic "EXLSEG02"
//	8-byte little-endian generation
//	payload (full store state: schemas + every cube's version history)
//	4-byte little-endian CRC32C over generation + payload
//
// A cube's history is a chain: its first version in full, then each later
// version as the delta from the entry before it wherever the store holds
// that delta (see store.Version), and in full wherever it does not — after
// an equal-asOf overwrite, or where a version shares too little with its
// predecessor for a delta to have been kept. A segment therefore grows
// with the current state plus the changes retained, not with versions ×
// state. "EXLSEG01" segments, written before deltas existed, hold every
// version in full without a form byte and are still read.
//
// A snapshot is written to a temporary name, fsync'd, renamed into place
// and the directory fsync'd, so a crash mid-snapshot leaves either the
// old state or the new one, never a half-written segment. The trailing
// CRC lets recovery reject a segment corrupted after the fact and fall
// back to the previous one.
var (
	segMagic       = [8]byte{'E', 'X', 'L', 'S', 'E', 'G', '0', '2'}
	segMagicLegacy = [8]byte{'E', 'X', 'L', 'S', 'E', 'G', '0', '1'}
)

// snapshotState is the in-memory form of a segment: what encodeSnapshot
// writes and decodeSnapshot returns.
type snapshotState struct {
	gen     uint64
	schemas map[string]model.Schema
	history map[string][]store.Version
}

// stateOf collects the full state of the wrapped store. Cube versions are
// the store's frozen shared instances, so nothing is copied.
func stateOf(mem *store.Store, gen uint64) *snapshotState {
	st := &snapshotState{gen: gen, schemas: mem.Schemas(), history: make(map[string][]store.Version)}
	for n := range st.schemas {
		if vs := mem.History(n); len(vs) > 0 {
			st.history[n] = vs
		}
	}
	return st
}

// encodeSnapshot serializes a segment's body (everything between the magic
// and the checksum).
func encodeSnapshot(st *snapshotState) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, st.gen)

	names := make([]string, 0, len(st.schemas))
	for n := range st.schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	b = appendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = appendSchema(b, st.schemas[n])
	}

	b = appendUvarint(b, uint64(len(st.history)))
	for _, n := range names {
		vs := st.history[n]
		if len(vs) == 0 {
			continue
		}
		b = appendString(b, n)
		b = appendUvarint(b, uint64(len(vs)))
		for i, v := range vs {
			b = appendVarint(b, v.AsOf.UnixNano())
			if i > 0 && v.Delta != nil && v.Delta.Base == vs[i-1].Cube {
				b = appendCubeRec(b, deltaRec(v.Delta), true)
			} else {
				b = appendCubeRec(b, fullRec(v.Cube), true)
			}
		}
	}
	return b
}

// decodeSnapshot reads a segment's body. legacy bodies hold every version
// in full, without a form byte. Delta chains are resolved here: a version
// whose delta does not apply to the entry before it fails the whole
// segment, like any other corruption.
func decodeSnapshot(raw []byte, legacy bool) (*snapshotState, error) {
	if len(raw) < 8 {
		return nil, fmt.Errorf("durable: segment body of %d bytes", len(raw))
	}
	d := &decoder{b: raw}
	st := &snapshotState{
		gen:     binary.LittleEndian.Uint64(raw[:8]),
		schemas: make(map[string]model.Schema),
		history: make(map[string][]store.Version),
	}
	d.off = 8
	nsch := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if nsch > uint64(len(raw)) {
		return nil, fmt.Errorf("durable: segment claims %d schemas", nsch)
	}
	last := ""
	for i := uint64(0); i < nsch; i++ {
		sch := d.schema()
		if d.err != nil {
			return nil, d.err
		}
		if i > 0 && last >= sch.Name {
			return nil, fmt.Errorf("durable: segment schemas out of order: %s before %s", last, sch.Name)
		}
		last = sch.Name
		st.schemas[sch.Name] = sch
	}
	ncubes := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if ncubes > nsch {
		return nil, fmt.Errorf("durable: segment has %d cube histories for %d schemas", ncubes, nsch)
	}
	for i := uint64(0); i < ncubes; i++ {
		name := d.string()
		nv := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if _, ok := st.schemas[name]; !ok || i > 0 && last >= name {
			return nil, fmt.Errorf("durable: segment history of %s is undeclared or out of order", name)
		}
		last = name
		if nv == 0 || nv > uint64(len(raw)) {
			return nil, fmt.Errorf("durable: cube %s claims %d versions", name, nv)
		}
		var vs []store.Version
		var prev *model.Cube
		for j := uint64(0); j < nv; j++ {
			asOf := time.Unix(0, d.varint())
			rec := d.cubeRec(!legacy)
			if d.err != nil {
				return nil, d.err
			}
			if rec.name() != name {
				return nil, fmt.Errorf("durable: history of %s holds a version of %s", name, rec.name())
			}
			c, delta, err := rec.applyTo(prev)
			if err != nil {
				return nil, err
			}
			vs = append(vs, store.Version{AsOf: asOf, Cube: c, Delta: delta})
			prev = c
		}
		st.history[name] = vs
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(raw) {
		return nil, fmt.Errorf("durable: %d trailing bytes after segment payload", len(raw)-d.off)
	}
	return st, nil
}

// writeSnapshot persists a segment atomically and returns its file name.
func writeSnapshot(fs FS, dir string, mem *store.Store, gen uint64) (string, error) {
	body := encodeSnapshot(stateOf(mem, gen))
	buf := make([]byte, 0, len(segMagic)+len(body)+4)
	buf = append(buf, segMagic[:]...)
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, crcTable))

	name := segmentName(gen)
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return "", err
	}
	if err := writeFull(f, buf); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return "", err
	}
	if err := fs.SyncDir(dir); err != nil {
		return "", err
	}
	return name, nil
}

// loadSnapshot reads and verifies a segment file.
func loadSnapshot(fs FS, path string) (*snapshotState, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(segMagic)+8+4 {
		return nil, fmt.Errorf("durable: %s is not a segment snapshot", path)
	}
	magic := [8]byte(raw[:8])
	if magic != segMagic && magic != segMagicLegacy {
		return nil, fmt.Errorf("durable: %s is not a segment snapshot", path)
	}
	body, sum := raw[8:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, fmt.Errorf("durable: %s fails checksum verification", path)
	}
	return decodeSnapshot(body, magic == segMagicLegacy)
}
