package durable

import (
	"maps"
	"testing"
	"time"

	"exlengine/internal/model"
	"exlengine/internal/store"
)

// TestReopenGenerationTranslation pins the generation axis across a
// restart: the generation counter continues from where recovery ended, a
// generation captured before the close — at the close or earlier — yields
// after the reopen exactly the delta it would have yielded before, and
// post-reopen writes diff against the recovered history. The same holds
// when the history comes back from the segment recovery wrote rather than
// from the log.
func TestReopenGenerationTranslation(t *testing.T) {
	dir := t.TempDir()
	t1 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

	d := openT(t, dir)
	if err := d.Put(yearCube(t, "A", map[int]float64{2020: 1}), t1); err != nil {
		t.Fatal(err)
	}
	g1 := d.Generation()
	if err := d.Put(yearCube(t, "A", map[int]float64{2020: 1, 2021: 2}), t1.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	genAtClose := d.Generation()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	wantDelta := func(st *Store, since uint64, added, changed []model.Tuple) {
		t.Helper()
		dd, err := st.Delta("A", since)
		if err != nil {
			t.Fatalf("delta since generation %d: %v", since, err)
		}
		if !sameTuples(dd.Added, added) || !sameTuples(dd.Changed, changed) || len(dd.Deleted) != 0 {
			t.Fatalf("delta since generation %d = +%v ~%v -%v, want +%v ~%v", since, dd.Added, dd.Changed, dd.Deleted, added, changed)
		}
	}
	y2021 := func(v float64) []model.Tuple {
		return []model.Tuple{{Dims: []model.Value{model.Per(model.NewAnnual(2021))}, Measure: v}}
	}

	// From the log, then from the segment that recovery wrote.
	for _, from := range []string{"the log", "the segment"} {
		d2 := openT(t, dir)
		if rec := d2.Recovery(); (rec.ReplayedRecords > 0) != (from == "the log") {
			t.Fatalf("recovery from %s = %+v", from, rec)
		}
		if g := d2.Generation(); g != genAtClose {
			t.Fatalf("generation after reopen from %s = %d, want %d (must continue, not reset)", from, g, genAtClose)
		}
		wantDelta(d2, genAtClose, nil, nil)
		wantDelta(d2, g1, y2021(2), nil)
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A write after reopen diffs against the recovered history.
	d3 := openT(t, dir)
	defer d3.Close()
	if err := d3.Put(yearCube(t, "A", map[int]float64{2020: 1, 2021: 7}), t1.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if g := d3.Generation(); g != genAtClose+1 {
		t.Fatalf("generation after one post-reopen write = %d, want %d", g, genAtClose+1)
	}
	wantDelta(d3, genAtClose, nil, y2021(7))
	wantDelta(d3, g1, y2021(7), nil)
}

func sameTuples(a, b []model.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Measure != b[i].Measure || len(a[i].Dims) != 1 || !a[i].Dims[0].Equal(b[i].Dims[0]) {
			return false
		}
	}
	return true
}

// TestProvenancePersists: what a version was computed from — the
// statement's fingerprint and each operand's generation, an operand in the
// same batch at the batch's own — comes back after a reopen, replayed from
// the log and read from a segment alike, for every version of the history.
func TestProvenancePersists(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, WithCompactAfter(-1))
	for k := 0; k < 3; k++ {
		if err := st.Put(yearCube(t, "A", map[int]float64{2020: float64(k)}), day(2*k)); err != nil {
			t.Fatal(err)
		}
		a := st.Generation()
		if _, err := st.PutAllGen(map[string]*model.Cube{
			"B": yearCube(t, "B", map[int]float64{2020: float64(2 * k)}),
			"C": yearCube(t, "C", map[int]float64{2020: float64(4 * k)}),
		}, nil, map[string]*store.Provenance{
			"B": {Stmt: 7, Inputs: map[string]uint64{"A": a}},
			"C": {Stmt: 9, Inputs: map[string]uint64{"B": 0, "A": a}},
		}, day(2*k+1)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]store.Version{"A": st.mem.State().History["A"], "B": st.mem.State().History["B"], "C": st.mem.State().History["C"]}
	if p := want["C"][2].Prov; p.Inputs["B"] != want["C"][2].Gen || p.Inputs["A"] != want["C"][2].Gen-1 {
		t.Fatalf("C's provenance = %v at generation %d: B, in its batch, is not at the batch's generation", p.Inputs, want["C"][2].Gen)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, from := range []string{"the log", "the segment"} {
		re := openT(t, dir)
		if rec := re.Recovery(); (rec.ReplayedRecords == 6) != (from == "the log") {
			t.Fatalf("recovery from %s = %+v", from, rec)
		}
		for name, vs := range want {
			got := re.mem.State().History[name]
			if len(got) != len(vs) {
				t.Fatalf("from %s, %s has %d versions, want %d", from, name, len(got), len(vs))
			}
			for i, v := range vs {
				g := got[i]
				if g.Gen != v.Gen || (g.Prov == nil) != (v.Prov == nil) ||
					v.Prov != nil && (g.Prov.Stmt != v.Prov.Stmt || !maps.Equal(g.Prov.Inputs, v.Prov.Inputs)) {
					t.Fatalf("from %s, %s version %d is at generation %d with provenance %+v, want %d and %+v", from, name, i, g.Gen, g.Prov, v.Gen, v.Prov)
				}
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
