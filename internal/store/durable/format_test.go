package durable

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"exlengine/internal/dispatch"
	"exlengine/internal/engine"
	"exlengine/internal/model"
	"exlengine/internal/store"
)

// writeWAL writes a complete WAL file of the given records, as a store
// that committed them and was closed would have left it.
func writeWAL(t *testing.T, dir string, baseGen uint64, payloads ...[]byte) {
	t.Helper()
	w, err := newWALWriter(OSFS{}, filepath.Join(dir, walName(baseGen)), baseGen, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := w.append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

// day is the validity instant of version k in these tests.
func day(k int) time.Time { return time.Unix(int64(k)*86400, 0) }

// chain returns n+1 versions of codecCube: the base and n revisions, each
// changing, dropping and adding a tuple of the one before.
func chain(t *testing.T, n int) []*model.Cube {
	t.Helper()
	vs := []*model.Cube{codecCube(t, 16).Freeze()}
	for k := 1; k <= n; k++ {
		prev := vs[k-1]
		next := prev.Clone()
		ts := prev.Tuples()
		if err := next.Replace(ts[k%8].Dims, float64(1000+k)); err != nil {
			t.Fatal(err)
		}
		next.Delete(ts[len(ts)-1].Dims)
		add := []model.Value{model.Str("n"), model.Per(model.Period{Freq: model.Monthly, Ord: int64(500 - k)}), model.Int(int64(k))}
		if err := next.Replace(add, float64(k)); err != nil {
			t.Fatal(err)
		}
		vs = append(vs, next.Freeze())
	}
	return vs
}

func checkVersions(t *testing.T, st *Store, name string, want []*model.Cube) {
	t.Helper()
	if got := st.Versions(name); len(got) != len(want) {
		t.Fatalf("%s has %d versions, want %d", name, len(got), len(want))
	}
	for k, w := range want {
		got, ok := st.GetAsOf(name, day(k))
		if !ok || !got.Equal(w, 0) || !got.Frozen() {
			t.Fatalf("%s as of day %d is not the version put", name, k)
		}
	}
}

// TestDeltaRecordOnTheWrongBaseIsTruncated: a delta record is applied only
// to the version it was made from. One whose recorded base size does not
// match the replayed predecessor — here a well-formed, checksummed record
// made against a version that never reached the log — is cut off like a
// torn record, with everything behind it, and never applied. So is one no
// store wrote: a list that names a tuple twice, or out of cube order, or a
// tuple both changed and deleted, which model.Cube.Apply refuses as a misfit
// before it has built anything. So is a record stamped with a generation other
// than the one it is replayed at, or with a provenance naming a later one.
func TestDeltaRecordOnTheWrongBaseIsTruncated(t *testing.T) {
	vs := chain(t, 3)
	lost := revise(t, vs[1], nil, []int{0, 1}, 0) // 14 tuples where the log has 16
	good := model.DiffCubes("M", vs[1], revise(t, vs[1], []int{2, 5}, nil, 0))
	malformed := func(edit func(d *model.CubeDelta)) cubeRec {
		d := *good
		edit(&d)
		rec := deltaRec(&d)
		if _, _, err := rec.applyTo(vs[1]); !errors.Is(err, model.ErrMisfit) {
			t.Fatalf("applying a malformed delta: %v, want a misfit", err)
		}
		return rec
	}
	future := deltaRec(good)
	future.prov = &store.Provenance{Inputs: map[string]uint64{"A": 4}}
	for what, rec := range map[string]cubeRec{
		"from the future": future,
		"another base":    deltaRec(model.DiffCubes("M", lost, revise(t, lost, []int{2}, nil, 0))),
		"named twice":     malformed(func(d *model.CubeDelta) { d.Changed = []model.Tuple{d.Changed[0], d.Changed[0]} }),
		"out of order":    malformed(func(d *model.CubeDelta) { d.Changed = []model.Tuple{d.Changed[1], d.Changed[0]} }),
		"changed and deleted": malformed(func(d *model.CubeDelta) {
			d.Deleted = []model.Tuple{{Dims: d.Changed[0].Dims, Measure: vs[1].Tuples()[2].Measure}}
		}),
	} {
		dir := t.TempDir()
		writeWAL(t, dir, 0,
			encodeRecord(commitRecord(day(0), 1, []cubeRec{fullRec(vs[0])})),
			encodeRecord(commitRecord(day(1), 2, []cubeRec{deltaRec(model.DiffCubes("M", vs[0], vs[1]))})),
			encodeRecord(commitRecord(day(2), 3, []cubeRec{rec})),
			encodeRecord(commitRecord(day(3), 4, []cubeRec{deltaRec(model.DiffCubes("M", vs[1], vs[2]))})),
		)
		st := openT(t, dir)
		rec := st.Recovery()
		if rec.Generation != 2 || rec.ReplayedRecords != 2 || rec.TruncatedRecords != 1 {
			t.Fatalf("%s: recovery = %+v, want the two records before the misfit and one truncation", what, rec)
		}
		checkVersions(t, st, "M", vs[:2])
		st.Close()
	}

	dir := t.TempDir()
	writeWAL(t, dir, 0,
		encodeRecord(commitRecord(day(0), 1, []cubeRec{fullRec(vs[0])})),
		encodeRecord(commitRecord(day(1), 3, []cubeRec{deltaRec(model.DiffCubes("M", vs[0], vs[1]))})),
	)
	st := openT(t, dir)
	defer st.Close()
	if rec := st.Recovery(); rec.Generation != 1 || rec.TruncatedRecords != 1 {
		t.Fatalf("a record of generation 3 replayed at 2: recovery = %+v, want it cut off", rec)
	}
}

// TestFullFormDirectoryStillOpens: a directory as stores wrote it before
// delta records existed — an "EXLSEG01" segment holding every version in
// full, and a WAL of opPut and opPutAll records — opens, with every
// version readable; the next commit on it is a delta like any other.
func TestFullFormDirectoryStillOpens(t *testing.T) {
	dir := t.TempDir()
	vs := chain(t, 4)
	y := []*model.Cube{
		yearCube(t, "Y", map[int]float64{2020: 1, 2021: 2}).Freeze(),
		yearCube(t, "Y", map[int]float64{2020: 1, 2021: 3}).Freeze(),
	}

	// The segment, at generation 2: M with two versions, Y declared only.
	var body []byte
	body = binary.LittleEndian.AppendUint64(body, 2)
	body = appendUvarint(body, 2)
	body = appendSchema(body, vs[0].Schema())
	body = appendSchema(body, y[0].Schema())
	body = appendUvarint(body, 1)
	body = appendString(body, "M")
	body = appendUvarint(body, 2)
	for k := 0; k < 2; k++ {
		body = appendVarint(body, day(k).UnixNano())
		body = appendCube(body, vs[k])
	}
	seg := append([]byte("EXLSEG01"), body...)
	seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum(body, crcTable))
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	writeWAL(t, dir, 2,
		encodeRecord(&record{op: opPut, asOf: day(2), cubes: []cubeRec{fullRec(vs[2])}}),
		encodeRecord(&record{op: opPutAll, asOf: day(3), cubes: []cubeRec{fullRec(vs[3]), fullRec(y[0])}}),
	)

	st := openT(t, dir)
	rec := st.Recovery()
	if rec.SnapshotGen != 2 || rec.Generation != 4 || rec.ReplayedRecords != 2 || rec.TruncatedRecords != 0 || rec.CorruptSegments != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	checkVersions(t, st, "M", vs[:4])
	ci, err := st.PutAllGen(map[string]*model.Cube{"M": vs[4], "Y": y[1]}, nil, nil, day(4))
	if err != nil {
		t.Fatal(err)
	}
	if ci.Gen != 5 || ci.FullCubes != 1 || ci.DeltaCubes != 1 { // Y is too small for a delta to be worth it
		t.Fatalf("commit on the converted directory = %+v", ci)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openT(t, dir)
	defer st.Close()
	checkVersions(t, st, "M", vs)
	if c, ok := st.Get("Y"); !ok || !c.Equal(y[1], 0) {
		t.Fatal("Y lost across the reopen")
	}
}

// TestSegmentIsADeltaChain pins the segment layout from outside: a cube's
// first version in full, every later one as the delta the commit kept, so
// the file grows with the changes and not with versions × state; an
// equal-asOf overwrite, whose delta base leaves the history, is in full
// again and the chain goes on from it. Deltas survive a reopen — the
// recovery segment is no larger than the one compaction wrote — and so
// does every version.
func TestSegmentIsADeltaChain(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, WithCompactAfter(-1))
	const n = 12
	vs := chain(t, n)
	for k, c := range vs {
		if err := st.Put(c, day(k)); err != nil {
			t.Fatal(err)
		}
	}
	segSize := func() int64 {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(dir, "seg-*.snap"))
		if err != nil || len(matches) != 1 {
			t.Fatalf("segments: %v (%v)", matches, err)
		}
		info, err := os.Stat(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	full := int64(len(appendCube(nil, vs[0])))
	chained := segSize()
	if limit := full + n*full/3; chained > limit { // a delta of three tuples is under a third of these sixteen
		t.Fatalf("segment of %d versions is %d bytes, one version is %d: not a delta chain", n+1, chained, full)
	}
	for i, v := range st.mem.State().History["M"] {
		if (v.Delta != nil) != (i > 0) {
			t.Fatalf("version %d: kept delta = %v", i, v.Delta)
		}
	}

	// Overwrite the latest version in place, then go on.
	over := revise(t, vs[n], []int{4}, nil, 0)
	vs[n] = over
	if err := st.Put(over, day(n)); err != nil {
		t.Fatal(err)
	}
	last := revise(t, over, []int{5}, nil, 0)
	vs = append(vs, last)
	if err := st.Put(last, day(n+1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	withOverwrite := segSize()
	if grew := withOverwrite - chained; grew < full/2 || grew > 2*full {
		t.Fatalf("segment grew by %d bytes over an overwrite and a revision; a full version is %d", grew, full)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openT(t, dir)
	defer st.Close()
	if rec := st.Recovery(); rec.CorruptSegments != 0 || rec.TruncatedRecords != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	checkVersions(t, st, "M", vs)
	// The version that overwrote comes back in full and frozen, so the store
	// finds the delta from the predecessor that is left: the chain is whole.
	if got := segSize(); got > withOverwrite {
		t.Errorf("recovery rewrote the %d-byte segment as %d bytes: the chain did not survive", withOverwrite, got)
	}
	for i, v := range st.mem.State().History["M"] {
		if (v.Delta != nil) != (i > 0) {
			t.Errorf("after reopen, version %d: kept delta = %v", i, v.Delta != nil)
		}
	}
}

// writeSegment writes body as the segment at gen in dir, behind magic and
// with its checksum, as writeSnapshot does.
func writeSegment(t *testing.T, dir, magic string, gen uint64, body []byte) {
	t.Helper()
	seg := append([]byte(magic), body...)
	seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum(body, crcTable))
	if err := os.WriteFile(filepath.Join(dir, segmentName(gen)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestImpossibleSegmentFallsBack: a segment whose checksum holds but whose
// state no store could have been in — generations that do not rise, one
// past the segment's, a provenance naming a generation after its version's,
// a watermark past the segment's — fails recovery from it like a bad
// checksum does, and recovery starts from the older segment instead.
func TestImpossibleSegmentFallsBack(t *testing.T) {
	for what, spoil := range map[string]func(st *store.State){
		"generations that do not rise":  func(st *store.State) { st.History["M"][1].Gen = st.History["M"][0].Gen },
		"a generation past the segment": func(st *store.State) { st.History["M"][1].Gen = st.Gen + 1 },
		"a provenance from the future": func(st *store.State) {
			st.History["M"][0].Prov = &store.Provenance{Inputs: map[string]uint64{"X": st.History["M"][0].Gen + 1}}
		},
		"a watermark past the segment": func(st *store.State) { st.Watermark["M"] = st.Gen + 1 },
	} {
		dir := t.TempDir()
		st := openT(t, dir, WithCompactAfter(-1))
		vs := chain(t, 1)
		for k, c := range vs {
			if err := st.Put(c, day(k)); err != nil {
				t.Fatal(err)
			}
		}
		state := st.mem.State()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Restore(state); err != nil {
			t.Fatalf("%s: the unspoilt state is refused: %v", what, err)
		}
		spoil(state)
		writeSegment(t, dir, string(segMagic[:]), state.Gen, encodeSnapshot(state))

		re := openT(t, dir)
		if rec := re.Recovery(); rec.CorruptSegments != 1 || rec.SnapshotGen != 0 || rec.ReplayedRecords != 2 || rec.Generation != 2 {
			t.Fatalf("%s: recovery = %+v, want the segment skipped and the log replayed", what, rec)
		}
		checkVersions(t, re, "M", vs)
		re.Close()
	}
}

// TestParentLayoutDirectoryOpens: a directory as stores wrote it before
// generations and provenance were on disk — an "EXLSEG02" segment and a WAL
// of opCommit records — opens with every version readable. The segment's
// versions get generations up to its own, so a delta from a generation
// before it is ErrDeltaUnavailable, and one from after it is exact. No
// version has a provenance, so an engine's first incremental run on it is
// full, and the next one is maintained.
func TestParentLayoutDirectoryOpens(t *testing.T) {
	const program = "cube A(q: quarter) measure v\n\nB := A * 2\n"
	ref := engine.New()
	if err := ref.RegisterProgram("p", program); err != nil {
		t.Fatal(err)
	}
	schA, _ := ref.Schema("A")
	schB, _ := ref.Schema("B")
	versions := func(sch model.Schema, scale float64, n int) []*model.Cube {
		var vs []*model.Cube
		for k := 0; k < n; k++ {
			c := model.NewCube(sch)
			for q := 0; q < 12; q++ {
				if err := c.Put([]model.Value{model.Per(model.NewQuarterly(2020, 1).Shift(int64(q)))}, scale*float64(q+10*k)); err != nil {
					t.Fatal(err)
				}
			}
			vs = append(vs, c.Freeze())
		}
		return vs
	}
	as, bs := versions(schA, 1, 4), versions(schB, 2, 4)

	// Commits 1–4 put A, run, put A, run; the segment is at 4. The log
	// after it holds commits 5 and 6: A's third version, and the run on it.
	dir := t.TempDir()
	seg := &store.State{Gen: 4, Schemas: map[string]model.Schema{"A": schA, "B": schB}, History: map[string][]store.Version{
		"A": {{AsOf: day(0), Cube: as[0]}, {AsOf: day(2), Cube: as[1], Delta: model.DiffCubes("A", as[0], as[1])}},
		"B": {{AsOf: day(1), Cube: bs[0]}, {AsOf: day(3), Cube: bs[1], Delta: model.DiffCubes("B", bs[0], bs[1])}},
	}}
	writeSegment(t, dir, "EXLSEG02", 4, legacySegment(seg, layoutTagged))
	writeWAL(t, dir, 4,
		encodeRecord(&record{op: opCommit, asOf: day(4), cubes: []cubeRec{deltaRec(model.DiffCubes("A", as[1], as[2]))}}),
		encodeRecord(&record{op: opCommit, asOf: day(5), cubes: []cubeRec{deltaRec(model.DiffCubes("B", bs[1], bs[2]))}}),
	)

	st := openT(t, dir)
	defer st.Close()
	if rec := st.Recovery(); rec.SnapshotGen != 4 || rec.Generation != 6 || rec.ReplayedRecords != 2 || rec.CorruptSegments != 0 || rec.TruncatedRecords != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	for i := 0; i < 3; i++ { // A's versions are at the even days, B's at the odd ones
		if a, ok := st.GetAsOf("A", day(2*i)); !ok || !a.Equal(as[i], 0) {
			t.Fatalf("A's version %d is not what was put", i)
		}
		if b, ok := st.GetAsOf("B", day(2*i+1)); !ok || !b.Equal(bs[i], 0) {
			t.Fatalf("B's version %d is not what was put", i)
		}
	}
	if _, err := st.Delta("A", 3); !errors.Is(err, store.ErrDeltaUnavailable) {
		t.Errorf("a delta from before the upgrade: %v, want ErrDeltaUnavailable", err)
	}
	if d, err := st.Delta("A", 4); err != nil || d.Base != st.mem.State().History["A"][1].Cube || len(d.Changed) != 12 {
		t.Errorf("a delta from the segment's generation = %v, %v: want A's third version against its second", d, err)
	}

	e := engine.New(engine.WithStore(st))
	if err := e.RegisterProgram("p", program); err != nil {
		t.Fatal(err)
	}
	run := func(at time.Time, want string) {
		t.Helper()
		rep, err := e.Run(context.Background(), engine.RunAt(at), engine.WithIncremental())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Fragments) != 1 || rep.Fragments[0].Mode != want {
			t.Fatalf("run at %v: fragments %+v, want one %s", at, rep.Fragments, want)
		}
		a, _ := e.Cube("A")
		if b, _ := e.Cube("B"); b.Len() != a.Len() {
			t.Fatalf("run at %v: B has %d tuples for A's %d", at, b.Len(), a.Len())
		}
	}
	run(day(6), dispatch.ModeFull)
	if err := e.PutCube(as[3], day(7)); err != nil {
		t.Fatal(err)
	}
	run(day(8), dispatch.ModeMaintained)
	if b, _ := e.Cube("B"); !b.Equal(bs[3], 0) {
		t.Error("the maintained B is not twice A")
	}
}
