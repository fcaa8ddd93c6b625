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
//	8-byte magic "EXLSEG03"
//	8-byte little-endian generation
//	payload (full store state: schemas + every cube's version history)
//	4-byte little-endian CRC32C over generation + payload
//
// A cube's history is its overwrite watermark and then its versions, each
// with its instant and generation: a chain of the first version in full, then
// each later version as the delta from the entry before it wherever the store
// holds that delta (see store.Version), and in full wherever it does not —
// after an equal-asOf overwrite, or where a version shares too little with
// its predecessor for a delta to have been kept — and every version followed
// by its provenance. A segment therefore grows with the current state plus
// the changes retained, not with versions × state. "EXLSEG02" segments,
// written before generations and provenance were, and "EXLSEG01" ones,
// written before deltas were and holding every version in full without a
// form byte, are still read: their versions are given generations in
// sequence up to the segment's, no provenance, and a watermark at the
// segment's generation, so that no delta is served across the upgrade.
//
// A snapshot is written to a temporary name, fsync'd, renamed into place
// and the directory fsync'd, so a crash mid-snapshot leaves either the
// old state or the new one, never a half-written segment. The trailing
// CRC lets recovery reject a segment corrupted after the fact and fall
// back to the previous one.
var segMagic = [8]byte{'E', 'X', 'L', 'S', 'E', 'G', '0', '0' + layoutStamped}

// encodeSnapshot serializes a segment's body (everything between the magic
// and the checksum).
func encodeSnapshot(st *store.State) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, st.Gen)

	names := make([]string, 0, len(st.Schemas))
	for n := range st.Schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	b = appendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = appendSchema(b, st.Schemas[n])
	}

	b = appendUvarint(b, uint64(len(st.History)))
	for _, n := range names {
		vs := st.History[n]
		if len(vs) == 0 {
			continue
		}
		b = appendString(b, n)
		b = appendUvarint(b, st.Watermark[n])
		b = appendUvarint(b, uint64(len(vs)))
		for i, v := range vs {
			b = appendVarint(b, v.AsOf.UnixNano())
			b = appendUvarint(b, v.Gen)
			r := fullRec(v.Cube)
			if i > 0 && v.Delta != nil && v.Delta.Base == vs[i-1].Cube {
				r = deltaRec(v.Delta)
			}
			r.prov = v.Prov
			b = appendCubeRec(b, r, layoutStamped)
		}
	}
	return b
}

// decodeSnapshot reads a segment's body in the given layout. Delta chains
// are resolved here: a version whose delta does not apply to the entry
// before it fails the whole segment, like any other corruption. Whether
// the state is one a store could have been in is store.Restore's to check.
func decodeSnapshot(raw []byte, layout int) (*store.State, error) {
	if len(raw) < 8 {
		return nil, fmt.Errorf("durable: segment body of %d bytes", len(raw))
	}
	d := &decoder{b: raw}
	st := &store.State{
		Gen:       binary.LittleEndian.Uint64(raw[:8]),
		Schemas:   make(map[string]model.Schema),
		History:   make(map[string][]store.Version),
		Watermark: make(map[string]uint64),
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
		st.Schemas[sch.Name] = sch
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
		watermark := st.Gen
		if layout == layoutStamped {
			watermark = d.uvarint()
		}
		nv := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if _, ok := st.Schemas[name]; !ok || i > 0 && last >= name {
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
			gen := st.Gen - (nv - 1 - j) // in sequence up to the segment's, where none was written
			if layout == layoutStamped {
				gen = d.uvarint()
			}
			rec := d.cubeRec(layout)
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
			vs = append(vs, store.Version{AsOf: asOf, Cube: c, Gen: gen, Prov: rec.prov, Delta: delta})
			prev = c
		}
		st.History[name], st.Watermark[name] = vs, watermark
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(raw) {
		return nil, fmt.Errorf("durable: %d trailing bytes after segment payload", len(raw)-d.off)
	}
	return st, nil
}

// writeSnapshot persists a segment of mem's state atomically and returns
// the generation it is at.
func writeSnapshot(fs FS, dir string, mem *store.Store) (uint64, error) {
	st := mem.State()
	body := encodeSnapshot(st)
	buf := make([]byte, 0, len(segMagic)+len(body)+4)
	buf = append(buf, segMagic[:]...)
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, crcTable))

	name := segmentName(st.Gen)
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return 0, err
	}
	if err := writeFull(f, buf); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return 0, err
	}
	if err := fs.SyncDir(dir); err != nil {
		return 0, err
	}
	return st.Gen, nil
}

// loadSnapshot reads and verifies a segment file of any layout.
func loadSnapshot(fs FS, path string) (*store.State, error) {
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
	layout := int(raw[7] - '0')
	if [7]byte(raw[:7]) != [7]byte(segMagic[:7]) || layout < layoutUntagged || layout > layoutStamped {
		return nil, fmt.Errorf("durable: %s is not a segment snapshot", path)
	}
	body, sum := raw[8:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, fmt.Errorf("durable: %s fails checksum verification", path)
	}
	return decodeSnapshot(body, layout)
}
