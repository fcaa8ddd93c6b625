package durable

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"exlengine/internal/model"
)

// TestCodecEncodesEitherFormAlike: the codec writes the same bytes for a
// mutable cube and for the same content held as columns over its
// predecessor's key set, in the full form and in the delta form, and both
// decode to cubes Equal at tolerance 0.
func TestCodecEncodesEitherFormAlike(t *testing.T) {
	prev := codecCube(t, 16).Freeze()
	rows := model.NewCube(prev.Schema()) // built by Put: not over prev, so Revise merges it
	_ = revise(t, prev, []int{1, 7, 12}, nil, 0).ForEach(func(tu model.Tuple) error { return rows.Put(tu.Dims, tu.Measure) })
	own := prev.Revise(rows.Clone())
	if own == nil || own.Current == rows || !own.Current.SharesKeySet(prev) {
		t.Fatal("the revision was not stored as columns over its predecessor's key set")
	}
	cols := own.Current
	twice := prev.Revise(revise(t, rows, []int{2}, nil, 0).Clone()) // a second version on the key set

	full := func(c *model.Cube) []byte { return encodeRecord(commitRecord(day(1), 1, []cubeRec{fullRec(c)})) }
	if !bytes.Equal(full(rows), full(cols)) {
		t.Error("full form differs between a mutable cube and columns")
	}
	delta := func(d *model.CubeDelta) []byte { return encodeRecord(commitRecord(day(1), 1, []cubeRec{deltaRec(d)})) }
	want := delta(model.DiffCubes("M", prev, rows))
	for what, d := range map[string]*model.CubeDelta{
		"the store's own pass":         own,
		"mutable cube against columns": model.DiffCubes("M", prev, cols),
		"columns against mutable cube": model.DiffCubes("M", prev.Clone().Freeze(), rows),
	} {
		if !bytes.Equal(delta(d), want) {
			t.Errorf("delta form differs: %s", what)
		}
	}
	if got, want := delta(model.DiffCubes("M", cols, twice.Current)), delta(model.DiffCubes("M", rows, twice.Current.Clone())); !bytes.Equal(got, want) {
		t.Error("delta form differs between two versions on one key set and their mutable forms")
	}

	rec, err := decodeRecord(full(cols))
	if err != nil || !rec.cubes[0].cube.Equal(rows, 0) {
		t.Fatalf("full form of columns does not decode to what was put: %v", err)
	}
	rec, err = decodeRecord(delta(own))
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []*model.Cube{prev, prev.Clone().Freeze()} {
		got, _, err := rec.cubes[0].applyTo(base)
		if err != nil || !got.Equal(rows, 0) || !rows.Equal(got, 0) {
			t.Fatalf("delta form applied to its base is not what was put: %v", err)
		}
	}
	if !replayable(own) {
		t.Error("the store's own delta would not replay")
	}
}

// TestOwnPassDeltaIsLogged: a revision put unfrozen and without a delta goes
// to the log as the delta the store's own pass produced, is held in memory as
// columns over the predecessor's key set with that delta, and reopens as what
// was put. The caller's cube is left as it was.
func TestOwnPassDeltaIsLogged(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir)
	v0 := codecCube(t, 16)
	if err := st.Put(v0, day(0)); err != nil {
		t.Fatal(err)
	}
	stored, _ := st.Get("M")
	if !stored.Frozen() || v0.Frozen() || stored == v0 {
		t.Fatal("the first load is stored as a snapshot; the caller's cube is not touched")
	}

	v1 := revise(t, stored, []int{3}, nil, 0).Clone()
	gen := st.Generation()
	ci, err := st.PutAllGen(map[string]*model.Cube{"M": v1}, nil, nil, day(1))
	if err != nil {
		t.Fatal(err)
	}
	if ci.DeltaCubes != 1 || ci.FullCubes != 0 {
		t.Fatalf("revision logged as %d deltas and %d full cubes, want one delta", ci.DeltaCubes, ci.FullCubes)
	}
	cur, _ := st.Get("M")
	d, err := st.Delta("M", gen)
	if err != nil || !cur.SharesKeySet(stored) || d.Base != stored || d.Current != cur || len(d.Changed) != 1 || v1.Frozen() {
		t.Fatalf("stored revision: on its predecessor's key set %v, delta %+v, err %v", cur.SharesKeySet(stored), d, err)
	}

	all := make([]int, 16)
	for i := range all {
		all[i] = i
	}
	v2 := revise(t, cur, all, nil, 0).Clone()
	ci, err = st.PutAllGen(map[string]*model.Cube{"M": v2}, nil, nil, day(2))
	if err != nil {
		t.Fatal(err)
	}
	cur2, _ := st.Get("M")
	if ci.DeltaCubes != 0 || ci.FullCubes != 1 || !cur2.SharesKeySet(cur) || v2.Frozen() {
		t.Fatalf("restatement of everything: %d deltas, %d full; on its predecessor's key set %v",
			ci.DeltaCubes, ci.FullCubes, cur2.SharesKeySet(cur))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openT(t, dir)
	defer re.Close()
	checkVersions(t, re, "M", []*model.Cube{v0, v1, v2})
}

// TestRecoveredHistorySharesKeySets: a history of revisions comes back from
// disk the way it was held — one set of dimension tuples and a measure
// column per version — whether it is replayed from the log or read from the
// segment recovery then wrote, and every version is what was put.
func TestRecoveredHistorySharesKeySets(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, WithCompactAfter(-1))
	vs := []*model.Cube{codecCube(t, 16)}
	if err := st.Put(vs[0], day(0)); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		vs = append(vs, revise(t, vs[k-1], []int{k}, nil, 0))
		ci, err := st.PutAllGen(map[string]*model.Cube{"M": vs[k].Clone()}, nil, nil, day(k))
		if err != nil || ci.DeltaCubes != 1 {
			t.Fatalf("revision %d: logged as %d deltas (%v)", k, ci.DeltaCubes, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, from := range []string{"the log", "the segment"} {
		re := openT(t, dir, WithCompactAfter(-1))
		if rec := re.Recovery(); rec.TruncatedRecords != 0 || rec.CorruptSegments != 0 || (rec.ReplayedRecords == 11) != (from == "the log") {
			t.Fatalf("recovery from %s = %+v", from, rec)
		}
		checkVersions(t, re, "M", vs)
		hist := re.mem.State().History["M"]
		for k, v := range hist[1:] {
			if !v.Cube.SharesKeySet(hist[0].Cube) || v.Delta == nil || v.Delta.Base != hist[k].Cube || len(v.Delta.Changed) != 1 {
				t.Errorf("from %s, version %d does not stand on the first one's key set with its delta", from, k+1)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayableHashesNoKeySet: a step that inserts a period into a 200k-tuple
// cube makes a key set, and checking that its delta would replay — a probe or
// two per listed tuple, of both ends — neither builds an index of that key set
// nor allocates anything else: a probe is a search of the ordered keys.
func TestReplayableHashesNoKeySet(t *testing.T) {
	const periods, regions = 10000, 20
	sch := model.NewSchema("G", []model.Dim{{Name: "t", Type: model.TDay}, {Name: "r", Type: model.TInt}}, "v")
	day := func(i int) model.Value { return model.Per(model.NewDaily(1990, 1, 1).Shift(int64(i))) }
	b := model.NewBuilder(sch)
	for i := 0; i < periods*regions; i++ {
		if err := b.Add([]model.Value{day(i / regions), model.Int(int64(i % regions))}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := &model.CubeDelta{Name: "G", Base: base}
	for r := 0; r < regions; r++ {
		d.Added = append(d.Added, model.Tuple{Dims: []model.Value{day(periods), model.Int(int64(r))}, Measure: 1})
	}
	for _, i := range []int{0, 77777, periods*regions - 1} {
		tu := base.View().Tuple(i)
		d.Changed = append(d.Changed, model.Tuple{Dims: tu.Dims, Measure: -1})
	}
	if d.Current, err = base.Apply(d.Added, d.Changed, nil); err != nil {
		t.Fatal(err)
	}
	// Mallocs counts every goroutine's allocations: run the check alone on one
	// processor, after a collection, so that the count is the check's own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ok := replayable(d)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; !ok || allocs != 0 {
		t.Errorf("replayable: %v, allocating %d times (%d B) for %d probes of %d tuples", ok, allocs, after.TotalAlloc-before.TotalAlloc, 2*d.Size(), base.Len())
	}
	d.Changed[1].Measure = 2
	if replayable(d) {
		t.Error("a delta that restates a tuple to what its end does not hold is replayable")
	}
}

// TestReplayedVersionsReadConcurrently: a chain of revisions that restate a
// few measures each, logged as deltas and replayed by Open, stands on the
// first version's key set as patches (and, past the rebase rule, a column of
// its own), and goroutines reading the replayed versions at once — by point,
// and by a first whole read racing the points — see what was put, bit for
// bit (run under -race).
func TestReplayedVersionsReadConcurrently(t *testing.T) {
	const n, steps, readers = 64, 6, 6
	dir := t.TempDir()
	st := openT(t, dir)
	put := codecCube(t, n)
	var want [][]model.Tuple
	for k := 0; k <= steps; k++ {
		if k > 0 {
			stored, _ := st.Get("M")
			put = revise(t, stored, []int{k, 3 * k}, nil, 0)
		}
		if err := st.Put(put, day(k)); err != nil {
			t.Fatal(err)
		}
		want = append(want, put.Tuples())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openT(t, dir)
	defer st.Close()
	at := st.Versions("M")
	if len(at) != steps+1 {
		t.Fatalf("%d versions replayed, want %d", len(at), steps+1)
	}
	versions := make([]*model.Cube, len(at))
	for k, when := range at {
		versions[k], _ = st.GetAsOf("M", when)
		if !versions[k].SharesKeySet(versions[0]) {
			t.Fatalf("replayed version %d left the first one's key set", k)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k, v := range versions {
				if g%2 == 0 {
					for _, tu := range want[k] {
						if m, ok := v.Get(tu.Dims); !ok || math.Float64bits(m) != math.Float64bits(tu.Measure) {
							t.Errorf("version %d at %v reads %v, want %v", k, tu.Dims, m, tu.Measure)
							return
						}
					}
					continue
				}
				got := v.Tuples()
				for i, tu := range want[k] {
					if math.Float64bits(got[i].Measure) != math.Float64bits(tu.Measure) {
						t.Errorf("version %d, read whole, at %v reads %v, want %v", k, tu.Dims, got[i].Measure, tu.Measure)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
