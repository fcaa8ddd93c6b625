package durable

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/store"
)

func yearSchema(name string) model.Schema {
	return model.NewSchema(name, []model.Dim{{Name: "t", Type: model.TYear}}, "v")
}

func yearCube(t testing.TB, name string, vals map[int]float64) *model.Cube {
	t.Helper()
	c := model.NewCube(yearSchema(name))
	for y, v := range vals {
		if err := c.Put([]model.Value{model.Per(model.NewAnnual(y))}, v); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func annual(t *testing.T, c *model.Cube, year int) float64 {
	t.Helper()
	v, ok := c.Get([]model.Value{model.Per(model.NewAnnual(year))})
	if !ok {
		t.Fatalf("no tuple for year %d", year)
	}
	return v
}

func openT(t *testing.T, dir string, opts ...Option) *Store {
	t.Helper()
	st, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// codecCube is a cube over every dimension value kind the codec writes.
func codecCube(t testing.TB, n int) *model.Cube {
	t.Helper()
	sch := model.NewSchema("M", []model.Dim{
		{Name: "s", Type: model.TString},
		{Name: "q", Type: model.TMonth},
		{Name: "i", Type: model.TInt},
	}, "x")
	c := model.NewCube(sch)
	for i := 0; i < n; i++ {
		dims := []model.Value{model.Str(string(rune('a' + i))), model.Per(model.Period{Freq: model.Monthly, Ord: int64(i)}), model.Int(int64(i - 2))}
		if err := c.Put(dims, float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// revise returns a frozen copy of c with the measures at the given tuple
// positions (in cube order) bumped, the tuples at drop removed and extra
// tuples added: a revision whose delta against c has all three lists.
func revise(t testing.TB, c *model.Cube, bump, drop []int, add int) *model.Cube {
	t.Helper()
	out := c.Clone()
	ts := c.Tuples()
	for _, i := range bump {
		if err := out.Replace(ts[i].Dims, ts[i].Measure+100); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range drop {
		out.Delete(ts[i].Dims)
	}
	for i := 0; i < add; i++ {
		dims := []model.Value{model.Str("zz"), model.Per(model.Period{Freq: model.Monthly, Ord: int64(1000 + i)}), model.Int(int64(i))}
		if err := out.Replace(dims, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out.Freeze()
}

// TestCodecRoundTrip exercises every record opcode, both cube forms and
// every value kind through encode + decode, and pins that encoding is the
// inverse of decoding to the byte.
func TestCodecRoundTrip(t *testing.T) {
	c := codecCube(t, 16).Freeze()
	asOf := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	roundTrip := func(r *record) *record {
		t.Helper()
		raw := encodeRecord(r)
		got, err := decodeRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		if again := encodeRecord(got); !bytes.Equal(again, raw) {
			t.Fatalf("opcode %d does not encode back to its bytes", r.op)
		}
		return got
	}

	rec := roundTrip(&record{op: opPut, asOf: asOf, cubes: []cubeRec{fullRec(c)}})
	if rec.op != opPut || !rec.asOf.Equal(asOf) {
		t.Fatalf("put header: op=%d asOf=%v", rec.op, rec.asOf)
	}
	if len(rec.cubes) != 1 || !rec.cubes[0].cube.Equal(c, 0) {
		t.Fatal("put cube does not round-trip")
	}

	other := yearCube(t, "Y", map[int]float64{2020: 1, 2021: 2})
	rec = roundTrip(&record{op: opPutAll, asOf: asOf, cubes: []cubeRec{fullRec(c), fullRec(other)}})
	if len(rec.cubes) != 2 || !rec.cubes[0].cube.Equal(c, 0) || !rec.cubes[1].cube.Equal(other, 0) {
		t.Fatal("putall cubes do not round-trip")
	}

	// A commit record: one cube as a delta with all three lists, one in full.
	next := revise(t, c, []int{1, 7}, []int{3}, 2)
	delta := model.DiffCubes("M", c, next)
	if len(delta.Added) != 2 || len(delta.Changed) != 2 || len(delta.Deleted) != 1 {
		t.Fatalf("test delta is +%d ~%d -%d", len(delta.Added), len(delta.Changed), len(delta.Deleted))
	}
	prov := &store.Provenance{Stmt: 1 << 60, Inputs: map[string]uint64{"M": 6, "X": 3, "": 0}}
	withProv := fullRec(other)
	withProv.prov = prov
	rec = roundTrip(commitRecord(asOf, 7, []cubeRec{withProv, deltaRec(delta)}))
	if len(rec.cubes) != 2 || rec.cubes[0].name() != "M" || rec.cubes[1].name() != "Y" || rec.gen != 7 {
		t.Fatalf("commit record cubes = %d, not M then Y, at generation %d", len(rec.cubes), rec.gen)
	}
	if p := rec.cubes[1].prov; rec.cubes[0].prov != nil || p == nil || p.Stmt != prov.Stmt || !maps.Equal(p.Inputs, prov.Inputs) {
		t.Fatalf("provenance does not round-trip: %+v, %+v", rec.cubes[0].prov, p)
	}
	// The commit record stores wrote before provenance: no generation, and
	// each version without one.
	if rec = roundTrip(&record{op: opCommit, asOf: asOf, cubes: []cubeRec{deltaRec(delta)}}); rec.gen != 0 || rec.cubes[0].prov != nil {
		t.Fatalf("an opCommit record decodes with generation %d and provenance %v", rec.gen, rec.cubes[0].prov)
	}
	got, gotDelta, err := rec.cubes[0].applyTo(c)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(next, 0) || !got.Frozen() {
		t.Fatal("delta applied to its base is not the version it was made for")
	}
	if gotDelta.Base != c || gotDelta.Current != got || gotDelta.Size() != delta.Size() {
		t.Fatalf("applied delta = %+v", gotDelta)
	}
	// The guard: any other base is refused, and so is a base of the right
	// size that lacks what the delta changes.
	if _, _, err := rec.cubes[0].applyTo(next); err == nil {
		t.Error("a delta applied to a cube of another size must fail")
	}
	if _, _, err := rec.cubes[0].applyTo(nil); err == nil {
		t.Error("a delta applied to nothing must fail")
	}
	if _, _, err := rec.cubes[0].applyTo(revise(t, c, nil, []int{1}, 1)); err == nil {
		t.Error("a delta applied to a cube lacking a changed tuple must fail")
	}

	sch := c.Schema()
	rec = roundTrip(&record{op: opDeclare, schema: sch})
	if !rec.schema.Equal(sch) {
		t.Fatalf("declare schema = %v", rec.schema)
	}

	// Corruption that a CRC would not catch (a truncated payload with a
	// valid checksum cannot happen, but a logically short one can) is a
	// decode error, not a panic.
	raw := encodeRecord(commitRecord(asOf, 1, []cubeRec{deltaRec(delta)}))
	if _, err := decodeRecord(raw[:len(raw)-3]); err == nil {
		t.Error("truncated payload must fail to decode")
	}
	if _, err := decodeRecord(append(raw, 0)); err == nil {
		t.Error("trailing bytes must fail to decode")
	}
	if _, err := decodeRecord([]byte{42}); err == nil {
		t.Error("unknown opcode must fail to decode")
	}
}

// TestReopenRoundTrip puts versions, reopens and checks that contents,
// version history, as-of reads and the write generation all survive.
func TestReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	t2 := t0.Add(48 * time.Hour)

	st := openT(t, dir)
	if err := st.Declare(yearSchema("A")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(yearCube(t, "A", map[int]float64{2019: 1}), t0); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(yearCube(t, "A", map[int]float64{2019: 2}), t2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutAllGen(map[string]*model.Cube{
		"B": yearCube(t, "B", map[int]float64{2019: 10}),
	}, nil, nil, t2); err != nil {
		t.Fatal(err)
	}
	genBefore := st.Generation()
	if genBefore != 3 {
		t.Fatalf("generation = %d, want 3", genBefore)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openT(t, dir)
	defer st.Close()
	rec := st.Recovery()
	if rec.Generation != genBefore {
		t.Errorf("recovered generation = %d, want %d", rec.Generation, genBefore)
	}
	if rec.TruncatedRecords != 0 || rec.CorruptSegments != 0 {
		t.Errorf("clean reopen repaired something: %+v", rec)
	}
	cur, ok := st.Get("A")
	if !ok || annual(t, cur, 2019) != 2 {
		t.Fatalf("current A after reopen = %v", cur)
	}
	old, ok := st.GetAsOf("A", t0.Add(time.Hour))
	if !ok || annual(t, old, 2019) != 1 {
		t.Fatal("as-of read lost after reopen")
	}
	if vs := st.Versions("A"); len(vs) != 2 || !vs[0].Equal(t0) || !vs[1].Equal(t2) {
		t.Fatalf("Versions(A) = %v", vs)
	}
	b, ok := st.Get("B")
	if !ok || annual(t, b, 2019) != 10 {
		t.Fatal("PutAllGen cube lost after reopen")
	}
	if _, ok := st.Schema("A"); !ok {
		t.Fatal("schema lost after reopen")
	}

	// The generation continues where it left off.
	if err := st.Put(yearCube(t, "A", map[int]float64{2019: 3}), t2.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if g := st.Generation(); g != genBefore+1 {
		t.Errorf("generation after reopen+put = %d, want %d", g, genBefore+1)
	}
}

// TestDeclarePersists checks schema-only state survives a reopen without
// bumping the generation.
func TestDeclarePersists(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir)
	if err := st.Declare(yearSchema("A")); err != nil {
		t.Fatal(err)
	}
	// Identical re-declaration writes nothing.
	if err := st.Declare(yearSchema("A")); err != nil {
		t.Fatal(err)
	}
	if g := st.Generation(); g != 0 {
		t.Fatalf("declare bumped generation to %d", g)
	}
	st.Close()

	st = openT(t, dir)
	defer st.Close()
	if _, ok := st.Schema("A"); !ok {
		t.Fatal("declared schema lost after reopen")
	}
	if g := st.Generation(); g != 0 {
		t.Fatalf("generation after reopen = %d, want 0", g)
	}
	if err := st.Declare(model.NewSchema("A", []model.Dim{{Name: "x", Type: model.TString}}, "v")); err == nil {
		t.Fatal("conflicting re-declaration must fail after reopen")
	}
}

// TestCompactionKeepsOnePair checks Compact folds the WAL into a snapshot,
// prunes superseded files and that recovery afterwards replays nothing.
func TestCompactionKeepsOnePair(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, WithCompactAfter(-1))
	if err := st.Declare(yearSchema("A")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Put(yearCube(t, "A", map[int]float64{2019: float64(i)}), time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("after Compact dir holds %d files, want snapshot+wal", len(names))
	}
	// Writes continue on the rotated WAL.
	if err := st.Put(yearCube(t, "A", map[int]float64{2019: 99}), time.Unix(9, 0)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st = openT(t, dir)
	defer st.Close()
	rec := st.Recovery()
	if rec.SnapshotGen != 5 {
		t.Errorf("recovery snapshot generation = %d, want 5", rec.SnapshotGen)
	}
	if rec.ReplayedRecords != 1 {
		t.Errorf("replayed %d records, want 1 (the post-compaction put)", rec.ReplayedRecords)
	}
	if g := st.Generation(); g != 6 {
		t.Errorf("generation = %d, want 6", g)
	}
	cur, _ := st.Get("A")
	if annual(t, cur, 2019) != 99 {
		t.Error("post-compaction put lost")
	}
}

// TestAutoCompaction checks that crossing CompactAfterBytes triggers a
// snapshot + rotation on its own.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st := openT(t, dir, WithCompactAfter(1), WithMetrics(reg)) // every commit compacts
	if err := st.Declare(yearSchema("A")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Put(yearCube(t, "A", map[int]float64{2019: float64(i)}), time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Open writes one segment, then declare + each put compacts once.
	if n := reg.Counter(obs.MetricStoreSegments).Value(); n < 4 {
		t.Errorf("segments written = %d, want >= 4 (auto-compaction did not run)", n)
	}
	st.Close()

	st = openT(t, dir)
	defer st.Close()
	if g := st.Generation(); g != 3 {
		t.Errorf("generation = %d, want 3", g)
	}
}

// TestTornTailTruncated appends garbage to the WAL and checks recovery
// cuts it off without losing committed records.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, WithCompactAfter(-1))
	if err := st.Declare(yearSchema("A")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := st.Put(yearCube(t, "A", map[int]float64{2019: float64(i)}), time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	walPath := activeWAL(t, dir)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half a record header: the shape an interrupted append leaves.
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st = openT(t, dir)
	defer st.Close()
	rec := st.Recovery()
	if rec.TruncatedRecords != 1 {
		t.Errorf("truncated records = %d, want 1", rec.TruncatedRecords)
	}
	if rec.Generation != 3 {
		t.Errorf("generation = %d, want 3", rec.Generation)
	}
	cur, _ := st.Get("A")
	if annual(t, cur, 2019) != 3 {
		t.Error("committed record lost to the torn tail")
	}
}

// TestCorruptRecordTruncatesSuffix flips one byte in the middle of the
// WAL and checks recovery keeps exactly the prefix before it.
func TestCorruptRecordTruncatesSuffix(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, WithCompactAfter(-1))
	if err := st.Declare(yearSchema("A")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := st.Put(yearCube(t, "A", map[int]float64{2019: float64(i)}), time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	walPath := activeWAL(t, dir)
	scan, err := readWAL(OSFS{}, walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Records: declare, put1, put2, put3. Corrupt put2's payload.
	if len(scan.offsets) != 4 {
		t.Fatalf("wal holds %d records, want 4", len(scan.offsets))
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[scan.offsets[2]+recordHeaderLen] ^= 0xff
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st = openT(t, dir)
	defer st.Close()
	rec := st.Recovery()
	if rec.TruncatedRecords != 1 {
		t.Errorf("truncated records = %d, want 1", rec.TruncatedRecords)
	}
	if rec.Generation != 1 {
		t.Errorf("generation = %d, want 1 (prefix before the corrupt record)", rec.Generation)
	}
	cur, _ := st.Get("A")
	if annual(t, cur, 2019) != 1 {
		t.Error("recovered state is not the prefix before the corruption")
	}
}

// TestCorruptSnapshotFallsBack corrupts the newest snapshot and checks
// recovery degrades to the older one and re-replays the WAL.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, WithCompactAfter(-1))
	if err := st.Declare(yearSchema("A")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := st.Put(yearCube(t, "A", map[int]float64{2019: float64(i)}), time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	// dir now holds seg-0 + wal-0 (declare + 2 puts). Stash them, reopen
	// (which folds into seg-2 + wal-2 and prunes), then restore, so both
	// snapshot generations coexist as after an interrupted prune.
	seg0, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	wal0, err := os.ReadFile(filepath.Join(dir, walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	st = openT(t, dir)
	st.Close()
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), seg0, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(0)), wal0, 0o644); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot.
	seg2path := filepath.Join(dir, segmentName(2))
	raw, err := os.ReadFile(seg2path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(seg2path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st = openT(t, dir)
	defer st.Close()
	rec := st.Recovery()
	if rec.CorruptSegments != 1 {
		t.Errorf("corrupt segments = %d, want 1", rec.CorruptSegments)
	}
	if rec.SnapshotGen != 0 {
		t.Errorf("recovery started from snapshot %d, want 0", rec.SnapshotGen)
	}
	if rec.Generation != 2 {
		t.Errorf("generation = %d, want 2", rec.Generation)
	}
	cur, _ := st.Get("A")
	if annual(t, cur, 2019) != 2 {
		t.Error("fallback recovery lost data")
	}
}

// TestGroupCommitConcurrent drives concurrent writers against fsyncs that
// take a moment (slowSyncFS) and checks that committers share them —
// fewer fsyncs than commits — and that every acknowledged commit survives
// a reopen.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, WithFS(slowSyncFS{}), WithCompactAfter(-1))
	const writers, puts = 8, 10
	for w := 0; w < writers; w++ {
		if err := st.Declare(yearSchema(cubeName(w))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < puts; k++ {
				c := model.NewCube(yearSchema(cubeName(w)))
				if err := c.Put([]model.Value{model.Per(model.NewAnnual(2019))}, float64(k)); err != nil {
					errs <- err
					return
				}
				if err := st.Put(c, time.Unix(int64(k), 0)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if g := st.Generation(); g != writers*puts {
		t.Fatalf("generation = %d, want %d", g, writers*puts)
	}
	_, fsyncs := st.WALStats()
	if fsyncs >= writers*puts {
		t.Errorf("fsyncs = %d for %d commits; group commit did not batch", fsyncs, writers*puts)
	}
	st.Close()

	st = openT(t, dir)
	defer st.Close()
	if g := st.Generation(); g != writers*puts {
		t.Fatalf("generation after reopen = %d, want %d", g, writers*puts)
	}
	for w := 0; w < writers; w++ {
		c, ok := st.Get(cubeName(w))
		if !ok || annual(t, c, 2019) != puts-1 {
			t.Fatalf("cube %s lost acknowledged commits", cubeName(w))
		}
	}
}

func cubeName(w int) string { return string(rune('A' + w)) }

// activeWAL returns the single wal-*.log in dir.
func activeWAL(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("active WAL: %v (%v)", matches, err)
	}
	return matches[0]
}

// TestRejectedWriteDoesNotPoison checks an ordinary validation failure
// (version ordering) is an error but leaves the store writable.
func TestRejectedWriteDoesNotPoison(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir)
	defer st.Close()
	if err := st.Put(yearCube(t, "A", map[int]float64{2019: 1}), time.Unix(10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(yearCube(t, "A", map[int]float64{2019: 2}), time.Unix(5, 0)); err == nil {
		t.Fatal("out-of-order version must be rejected")
	}
	if err := st.Put(yearCube(t, "A", map[int]float64{2019: 3}), time.Unix(20, 0)); err != nil {
		t.Fatalf("store poisoned by a rejected write: %v", err)
	}
	if g := st.Generation(); g != 2 {
		t.Errorf("generation = %d, want 2", g)
	}
}

// TestEmptyPutAllIsNoop mirrors the in-memory store contract.
func TestEmptyPutAllIsNoop(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir)
	defer st.Close()
	if _, err := st.PutAllGen(nil, nil, nil, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if g := st.Generation(); g != 0 {
		t.Errorf("empty PutAllGen bumped generation to %d", g)
	}
}
