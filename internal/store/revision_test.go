package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"exlengine/internal/model"
)

// pdrCube builds a cube shaped like the GDP example's PDR(d: day, r:
// string): n tuples over 20 regions, the i-th of measure i.
func pdrCube(n int) *model.Cube { return pdrCubeOf(n, func(i int) float64 { return float64(i) }) }

// pdrSource is pdrCube with measures shaped like workload.GDPSource's: a
// population with growth, a weekly season and noise, which WriteCSV writes
// with 16 or 17 significant digits.
func pdrSource(n int) *model.Cube {
	rng := rand.New(rand.NewSource(1))
	return pdrCubeOf(n, func(i int) float64 {
		day, base := float64(i/20), 1e6*float64(1+i%20%7)
		return base*(1+0.0001*day)*(1+0.01*math.Sin(2*math.Pi*day/7)) + rng.NormFloat64()*base*0.001
	})
}

func pdrCubeOf(n int, measure func(i int) float64) *model.Cube {
	c := model.NewCube(model.NewSchema("PDR", []model.Dim{{Name: "d", Type: model.TDay}, {Name: "r", Type: model.TString}}, "p"))
	start := model.NewDaily(2000, time.January, 1)
	for i := 0; i < n; i++ {
		dims := []model.Value{model.Per(start.Shift(int64(i / 20))), model.Str(fmt.Sprintf("R%02d", i%20))}
		if err := c.Put(dims, measure(i)); err != nil {
			panic(err)
		}
	}
	return c
}

// revised returns an unfrozen copy of prev with every hundredth tuple,
// counted from offset, restated.
func revised(prev *model.Cube, tuples []model.Tuple, offset int) *model.Cube {
	out := prev.Clone()
	for i := offset % 100; i < len(tuples); i += 100 {
		if err := out.Replace(tuples[i].Dims, float64(-offset*len(tuples)-i)); err != nil {
			panic(err)
		}
	}
	return out
}

func day(k int) time.Time { return time.Unix(0, 0).AddDate(0, 0, k) }

func heapAlloc() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func totalAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// TestRevisionPutBudget: once a version has been read in order, putting a
// 1 % revision of it — unfrozen, as a client does — costs the store a
// measure column and the delta, not a clone: it allocates within 8 B per
// tuple plus 64 B per changed tuple (a Tuple in a list that doubles as it
// grows), retains within 10 B per tuple per version, comes with its order,
// and answers Delta for the preceding generation from the delta the pass
// left on it.
func TestRevisionPutBudget(t *testing.T) {
	const n, revisions = 20000, 10
	s := New()
	if err := s.Put(pdrCube(n), day(0)); err != nil {
		t.Fatal(err)
	}
	base, _ := s.Get("PDR")
	tuples := base.Tuples() // the one ordered read
	revs := make([]*model.Cube, revisions)
	prev := base
	for k := range revs {
		revs[k] = revised(prev, tuples, k+1)
		prev = revs[k]
	}

	heap0 := heapAlloc()
	for k, rev := range revs {
		gen := s.Generation()
		before := totalAlloc()
		if err := s.Put(rev, day(k+1)); err != nil {
			t.Fatal(err)
		}
		spent := totalAlloc() - before
		changed := n / 100
		if budget := int64(8*n + 64*changed + 1024); spent > budget {
			t.Errorf("put %d allocated %d B, budget %d", k, spent, budget)
		}
		cur, _ := s.Get("PDR")
		// (Compared with a clone: an ordered read of rev would leave its order on it.)
		if !cur.SharesKeySet(base) || !cur.Equal(rev.Clone(), 0) || cur == rev || rev.Frozen() {
			t.Fatalf("put %d: stored version is off the key set, differs from what was put, or is the caller's cube", k)
		}
		var d *model.CubeDelta
		if a := testing.AllocsPerRun(5, func() { d, _ = s.Delta("PDR", gen) }); a != 0 {
			t.Errorf("Delta for the preceding generation allocates %v times", a)
		}
		hist := s.State().History["PDR"]
		if d == nil || d != hist[len(hist)-1].Delta || d.Base != hist[len(hist)-2].Cube || d.Current != cur {
			t.Fatalf("put %d: Delta is not the delta kept on the version", k)
		}
		want := model.DiffCubes("PDR", hist[len(hist)-2].Cube.Clone(), rev.Clone())
		if len(d.Changed) != changed || len(d.Added)+len(d.Deleted) != 0 || !sameTuples(d.Changed, want.Changed) {
			t.Fatalf("put %d: kept delta is +%d ~%d -%d, DiffCubes says ~%d", k, len(d.Added), len(d.Changed), len(d.Deleted), len(want.Changed))
		}
	}
	if per := float64(heapAlloc()-heap0) / (n * revisions); per > 10 {
		t.Errorf("a retained revision keeps %.1f B/tuple live, budget 10", per)
	}
	for k, rev := range revs {
		if got, _ := s.GetAsOf("PDR", day(k+1)); !got.Equal(rev, 0) {
			t.Errorf("version %d differs from what was put", k)
		}
	}
	runtime.KeepAlive(s)
}

func sameTuples(a, b []model.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Measure != b[i].Measure || model.EncodeKey(a[i].Dims) != model.EncodeKey(b[i].Dims) {
			return false
		}
	}
	return true
}

// TestPutCopiesWhatIsNoRevision: the store shares a key set where it
// observes a revision, whichever way the cube put is held. A mutable cube over
// the latest version — its Clone, edited — comes with its delta whatever
// moved; any other put is merged with the latest version, and a frozen one
// that moved dimension tuples is adopted, with the delta its order gives away.
func TestPutCopiesWhatIsNoRevision(t *testing.T) {
	s := New()
	put := func(c *model.Cube, k int) (*model.Cube, *model.CubeDelta) {
		t.Helper()
		if err := s.Put(c, day(k)); err != nil {
			t.Fatal(err)
		}
		hist := s.State().History["PDR"]
		return hist[len(hist)-1].Cube, hist[len(hist)-1].Delta
	}
	base := pdrCube(400)
	tuples := base.Clone().Tuples()
	v0, d0 := put(base, 0)
	if v0 == base || !v0.Frozen() || base.Frozen() || d0 != nil {
		t.Fatal("a first load was adopted, or came with a delta")
	}
	// A frozen revision on a key set of its own comes with its order: it
	// lands on v0's key set.
	frozen := revised(pdrCube(400), tuples, 1).Freeze()
	v1, d1 := put(frozen, 1)
	if v1 == frozen || !v1.SharesKeySet(v0) || d1 == nil || d1.Base != v0 || d1.Current != v1 || len(d1.Changed) != 4 {
		t.Error("a frozen revision was adopted instead of sharing its predecessor's key set")
	}
	// So does an unfrozen one, which stays its caller's.
	v2, d2 := put(revised(v1, tuples, 2), 2)
	if !v2.SharesKeySet(v1) || d2 == nil || d2.Base != v1 || d2.Current != v2 || len(d2.Changed) != 4 {
		t.Error("an unfrozen revision does not share its predecessor's key set")
	}
	// An insert into a mutable cube over v2: its own delta, a key set of its own.
	grown := v2.Clone()
	extra := []model.Value{model.Per(model.NewDaily(1999, time.January, 1)), model.Str("R00")}
	_ = grown.Put(extra, 1)
	v3, d3 := put(grown, 3)
	if v3 == grown || v3.SharesKeySet(v2) || d3 == nil || len(d3.Added) != 1 || d3.Size() != 1 || v3.Len() != 401 || grown.Frozen() {
		t.Errorf("an insert: %+v", d3)
	}
	// A mutable cube over v2 put after v3: merged with v3, a delete.
	v4, d4 := put(v2.Clone(), 4)
	if v4.SharesKeySet(v3) || !v4.SharesKeySet(v2) || d4 == nil || len(d4.Deleted) != 1 || d4.Size() != 1 || v4.Len() != 400 {
		t.Errorf("a delete: %+v", d4)
	}
	// The same in a frozen cube: adopted, with the delta.
	v5, d5 := put(grown.Clone().Freeze(), 5)
	if d5 == nil || d5.Current != v5 || d5.Base != v4 || len(d5.Added) != 1 || len(d5.Changed)+len(d5.Deleted) != 0 || v5.SharesKeySet(v4) {
		t.Errorf("a frozen insert: %+v", d5)
	}
	// An equal-asOf overwrite shares the key set of the version it
	// replaces, but that version is gone: no delta may lead from it.
	gen := s.Generation()
	tuples = v5.Tuples()
	v6, d6 := put(revised(v5, tuples, 4), 5)
	if !v6.SharesKeySet(v5) || d6 != nil || len(s.Versions("PDR")) != 6 {
		t.Errorf("overwrite: key set shared %v, delta %v, %d versions", v6.SharesKeySet(v5), d6, len(s.Versions("PDR")))
	}
	if _, err := s.Delta("PDR", gen); err == nil {
		t.Error("Delta across an overwrite must be unavailable")
	}
	// A handed delta about the very cubes is kept as it is, and the cube adopted.
	next := revised(v6, tuples, 5).Freeze()
	handed := model.DiffCubes("PDR", v6, next)
	if _, err := s.PutAllGen(map[string]*model.Cube{"PDR": next}, map[string]*model.CubeDelta{"PDR": handed}, nil, day(6)); err != nil {
		t.Fatal(err)
	}
	if hist := s.State().History["PDR"]; hist[len(hist)-1].Cube != next || hist[len(hist)-1].Delta != handed {
		t.Error("a trusted delta was not kept with its cube")
	}
}

// TestDeltaAcrossVersionsOnOneKeySet: versions that share a key set are
// diffed column against column however far apart they are, so Delta from the
// root's generation allocates the delta and its Changed list, nothing that
// grows with the cube.
func TestDeltaAcrossVersionsOnOneKeySet(t *testing.T) {
	const n = 4000
	s := New()
	if err := s.Put(pdrCube(n), day(0)); err != nil {
		t.Fatal(err)
	}
	root, rootGen := s.State().History["PDR"][0].Cube, s.Generation()
	tuples := root.Clone().Tuples()
	for k := 1; k <= 2; k++ {
		cur, _ := s.Get("PDR")
		if err := s.Put(revised(cur, tuples, k), day(k)); err != nil {
			t.Fatal(err)
		}
	}
	cur, _ := s.Get("PDR")
	if !cur.SharesKeySet(root) {
		t.Fatal("the second successor does not stand on the root's key set")
	}
	var d *model.CubeDelta
	if a := testing.AllocsPerRun(5, func() { d, _ = s.Delta("PDR", rootGen) }); a > 2 {
		t.Errorf("Delta across two versions on one key set allocates %v times, want the delta and its list", a)
	}
	want := model.DiffCubes("PDR", root.Clone(), cur.Clone())
	if d.Base != root || d.Current != cur || len(d.Changed) != 2*n/100 || len(d.Added)+len(d.Deleted) != 0 || !sameTuples(d.Changed, want.Changed) {
		t.Errorf("Delta from the root is +%d ~%d -%d, probing says ~%d", len(d.Added), len(d.Changed), len(d.Deleted), len(want.Changed))
	}
}

// TestWriteCSVFromEitherForm: a stored version exports the bytes the mutable
// cube it was put as does, and reads back Equal.
func TestWriteCSVFromEitherForm(t *testing.T) {
	s := New()
	_ = s.Put(pdrCube(300), day(0))
	v0, _ := s.Get("PDR")
	rev := revised(v0, v0.Tuples(), 1)
	_ = s.Put(rev, day(1))
	cols, _ := s.Get("PDR")
	if !cols.SharesKeySet(v0) || cols.Equal(v0, 0) {
		t.Fatal("the revision is not stored as columns over its predecessor's key set")
	}
	var fromRows, fromCols bytes.Buffer
	if err := WriteCSV(&fromRows, rev); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&fromCols, cols); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromRows.Bytes(), fromCols.Bytes()) {
		t.Error("WriteCSV differs between a mutable cube and the same content in columns")
	}
	back, err := ReadCSV(&fromCols, cols.Schema())
	if err != nil || !back.Equal(cols, 0) || !cols.Equal(back, 0) {
		t.Errorf("reading the export back: %v", err)
	}
}

// TestReadCSVAllocsPerLine: a line of a first load costs its row key. Its
// Dims are cut from a slab a chunk of 256 tuples shares, a region is interned,
// a day is parsed once for its twenty lines, and an unquoted line never
// reaches encoding/csv. Onto its predecessor, a body costs what it costs to set
// up, however many lines it has: the fields are compared with the
// predecessor's tuples, and the measures go onto one column.
func TestReadCSVAllocsPerLine(t *testing.T) {
	read := func(prev *model.Cube, body []byte, sch model.Schema) float64 {
		return testing.AllocsPerRun(3, func() {
			c, err := ReadCSVOn(prev, bytes.NewReader(body), sch)
			if err != nil || prev != nil && !c.SharesKeySet(prev) {
				t.Fatalf("read onto %v: %v", prev != nil, err)
			}
		})
	}
	const n = 2000
	s, body := csvRevision(t, n)
	large, largeBody := csvRevision(t, 10*n)
	sch, _ := s.Schema("PDR")
	if per := read(nil, largeBody, sch) / (10 * n); per > 1.1 {
		t.Errorf("ReadCSV allocates %.2f times per line, want its row key and the chunks' share", per)
	}
	prev, _ := s.Get("PDR")
	largePrev, _ := large.Get("PDR")
	if a, b := read(prev, body, sch), read(largePrev, largeBody, sch); a != b || b > 32 {
		t.Errorf("onto its predecessor, a body of %d lines allocates %v times, one of %d lines %v times", n, a, 10*n, b)
	}
}

// TestReadCSVRevisionAllocatesTheDelta: a CSV PUT of a revision that restates
// 200 measures — ReadCSVOn onto the predecessor, then Put — allocates the
// same, within 2 KiB, onto a predecessor of 20 000 tuples and of 80 000: the
// restated rows and the decoder's buffers, not a measure column. The version
// stored is a patch over the predecessor's column.
func TestReadCSVRevisionAllocatesTheDelta(t *testing.T) {
	const restated, spread = 200, 2048
	step := func(n int) int64 {
		base := pdrSource(n).Freeze()
		rev, tuples := base.Clone(), base.Tuples()
		for i := 0; i < n; i += n / restated {
			if err := rev.Replace(tuples[i].Dims, -tuples[i].Measure); err != nil {
				t.Fatal(err)
			}
		}
		var body bytes.Buffer
		if err := WriteCSV(&body, rev); err != nil {
			t.Fatal(err)
		}
		least := int64(math.MaxInt64)
		for rep := 0; rep < 4; rep++ { // the first fills the decoder's pool
			s := New()
			if err := s.Put(base, day(0)); err != nil {
				t.Fatal(err)
			}
			before := totalAlloc()
			c, err := ReadCSVOn(base, bytes.NewReader(body.Bytes()), base.Schema())
			if err == nil {
				err = s.Put(c, day(1))
			}
			spent := totalAlloc() - before
			if err != nil {
				t.Fatal(err)
			}
			if k, ok := c.View().Patched(); !ok || k != restated || !c.SharesKeySet(base) {
				t.Fatalf("at %d tuples the revision is a patch %v of %d rows (want %d)", n, ok, k, restated)
			}
			if rep > 0 {
				least = min(least, spent)
			}
		}
		return least
	}
	small, large := step(20000), step(80000)
	t.Logf("a revision allocates %d B onto 20 000 tuples, %d B onto 80 000", small, large)
	if large > small+spread || small > large+spread {
		t.Errorf("a revision allocates %d B onto 20 000 tuples and %d B onto 80 000: it grows with the tuples, not the delta", small, large)
	}
}

var sinkGen uint64

// BenchmarkPutRevision: what a store spends to take in a 1 % revision of a
// 200k-tuple PDR-shaped version, made as a client makes one — the latest
// version's Clone, 2 000 measures Replaced, untimed — and not read since: the
// measure column its edits fold into and the delta they are (compare
// BenchmarkCubeFirstSort in internal/model for the sort it does not pay, on
// the same cube).
func BenchmarkPutRevision(b *testing.B) {
	s := New()
	if err := s.Put(pdrCube(200000), day(0)); err != nil {
		b.Fatal(err)
	}
	base, _ := s.Get("PDR")
	tuples := base.Tuples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		latest, _ := s.Get("PDR")
		rev := revised(latest, tuples, i+1)
		b.StartTimer()
		if err := s.Put(rev, day(i+1)); err != nil {
			b.Fatal(err)
		}
		sinkGen = s.Generation()
	}
}

// csvRevision returns a store that holds a PDR of n tuples (pdrSource) and the
// body of a revision of it: the same dimension tuples, every hundredth restated.
func csvRevision(tb testing.TB, n int) (*Store, []byte) {
	s := New()
	if err := s.Put(pdrSource(n), day(0)); err != nil {
		tb.Fatal(err)
	}
	base, _ := s.Get("PDR")
	var body bytes.Buffer
	if err := WriteCSV(&body, revised(base, base.Tuples(), 1).Freeze()); err != nil {
		tb.Fatal(err)
	}
	return s, body.Bytes()
}

// BenchmarkReadCSVRevision: what a CSV PUT of a revision costs, decode and
// store — a 40k-tuple PDR body, its measures of 16 or 17 digits, read onto its
// predecessor's key set, then Put.
func BenchmarkReadCSVRevision(b *testing.B) {
	s, body := csvRevision(b, 40000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		latest, _ := s.Get("PDR")
		c, err := ReadCSVOn(latest, bytes.NewReader(body), latest.Schema())
		if err != nil || !c.SharesKeySet(latest) {
			b.Fatalf("read onto the predecessor: %v", err)
		}
		if err := s.Put(c, day(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadCSVFirstLoad: the same body with no predecessor — the decoder
// alone, and a key set made from the file.
func BenchmarkReadCSVFirstLoad(b *testing.B) {
	s, body := csvRevision(b, 40000)
	sch, _ := s.Schema("PDR")
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := ReadCSV(bytes.NewReader(body), sch)
		if err != nil {
			b.Fatal(err)
		}
		sinkGen = uint64(c.Len())
	}
}
