package store

import (
	"errors"
	"testing"
	"time"

	"exlengine/internal/model"
)

// TestGetAsOfExactBoundary pins the inclusivity of version lookup: a
// version stamped asOf=t is visible at exactly t, an instant earlier is
// not found, and between two versions the older one is served.
func TestGetAsOfExactBoundary(t *testing.T) {
	s := New()
	t1 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	t2 := t1.Add(24 * time.Hour)
	if err := s.Put(yearCube(t, "A", map[int]float64{2020: 1}), t1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(yearCube(t, "A", map[int]float64{2020: 2}), t2); err != nil {
		t.Fatal(err)
	}

	get := func(at time.Time) (float64, bool) {
		c, ok := s.GetAsOf("A", at)
		if !ok {
			return 0, false
		}
		v, ok := c.Get([]model.Value{model.Per(model.NewAnnual(2020))})
		if !ok {
			t.Fatalf("version at %v lost its tuple", at)
		}
		return v, true
	}

	if _, ok := get(t1.Add(-time.Nanosecond)); ok {
		t.Error("an instant before the first version must be not-found")
	}
	if v, ok := get(t1); !ok || v != 1 {
		t.Errorf("at exactly t1: got (%v,%v), want (1,true) — boundary is inclusive", v, ok)
	}
	if v, ok := get(t2.Add(-time.Nanosecond)); !ok || v != 1 {
		t.Errorf("just before t2: got (%v,%v), want the t1 version", v, ok)
	}
	if v, ok := get(t2); !ok || v != 2 {
		t.Errorf("at exactly t2: got (%v,%v), want (2,true)", v, ok)
	}
}

// TestDeltaSinceGeneration exercises Store.Delta against a real version
// history: exact tuple-level changes since an older generation, an empty
// delta at the current generation, and an empty-to-empty delta for a
// declared cube with no stored version.
func TestDeltaSinceGeneration(t *testing.T) {
	s := New()
	t1 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := s.Put(yearCube(t, "A", map[int]float64{2020: 1, 2021: 2}), t1); err != nil {
		t.Fatal(err)
	}
	g1 := s.Generation()
	if err := s.Put(yearCube(t, "A", map[int]float64{2021: 2, 2022: 9}), t1.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	d, err := s.Delta("A", g1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || d.Added[0].Measure != 9 {
		t.Errorf("Added = %v, want the single 2022->9 tuple", d.Added)
	}
	if len(d.Deleted) != 1 || d.Deleted[0].Measure != 1 {
		t.Errorf("Deleted = %v, want the single 2020->1 tuple", d.Deleted)
	}
	if len(d.Changed) != 0 {
		t.Errorf("Changed = %v, want none (2021 kept its value)", d.Changed)
	}

	if d, err = s.Delta("A", s.Generation()); err != nil || !d.Empty() {
		t.Errorf("delta at current generation: (%v, %v), want empty", d, err)
	}
	if _, err := s.Delta("NOPE", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("undeclared cube: err = %v, want ErrNotFound", err)
	}
	if err := s.Declare(yearSchema("B")); err != nil {
		t.Fatal(err)
	}
	if d, err = s.Delta("B", 0); err != nil || !d.Empty() {
		t.Errorf("declared-but-never-stored cube: (%v, %v), want empty delta", d, err)
	}
}

// TestDeltaOverwriteUnavailable: an equal-asOf overwrite destroys the
// version a pre-overwrite snapshot observed, so Delta from such a
// generation must refuse with ErrDeltaUnavailable rather than hand back
// a diff against the wrong base. Generations at or after the overwrite
// keep working.
func TestDeltaOverwriteUnavailable(t *testing.T) {
	s := New()
	t1 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := s.Put(yearCube(t, "A", map[int]float64{2020: 1}), t1); err != nil {
		t.Fatal(err)
	}
	g1 := s.Generation()
	// Same asOf: last write wins and replaces the g1 version in place.
	if err := s.Put(yearCube(t, "A", map[int]float64{2020: 5}), t1); err != nil {
		t.Fatal(err)
	}
	g2 := s.Generation()
	if err := s.Put(yearCube(t, "A", map[int]float64{2020: 5, 2021: 6}), t1.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Delta("A", g1); !errors.Is(err, ErrDeltaUnavailable) {
		t.Errorf("delta across an overwrite: err = %v, want ErrDeltaUnavailable", err)
	}
	d, err := s.Delta("A", g2)
	if err != nil {
		t.Fatalf("delta from the post-overwrite generation must work: %v", err)
	}
	if len(d.Added) != 1 || len(d.Changed) != 0 || len(d.Deleted) != 0 {
		t.Errorf("delta since g2 = +%d ~%d -%d, want exactly one addition", len(d.Added), len(d.Changed), len(d.Deleted))
	}
}

// TestPutAllGenKeepsTrustedDelta pins the rule for deltas handed to
// PutAllGen. One whose Base is the cube's latest version and whose Current
// is the cube being stored, both by pointer, is kept: Delta for the
// preceding generation returns that very delta without diffing, and
// History carries it. One about any other pair of cubes is dropped — the
// store may then keep one of its own making, about the pair it stored — and
// an equal-asOf overwrite keeps none, because its base leaves the history.
func TestPutAllGenKeepsTrustedDelta(t *testing.T) {
	s := New()
	t1 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	v1 := yearCube(t, "A", map[int]float64{2020: 1, 2021: 2}).Freeze()
	if err := s.Put(v1, t1); err != nil {
		t.Fatal(err)
	}
	g1 := s.Generation()

	put := func(c *model.Cube, d *model.CubeDelta, at time.Time) uint64 {
		t.Helper()
		ci, err := s.PutAllGen(map[string]*model.Cube{"A": c}, map[string]*model.CubeDelta{"A": d}, nil, at)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Gen != s.Generation() || ci.WALBytes != 0 || ci.DeltaCubes != 0 || ci.FullCubes != 0 {
			t.Fatalf("commit = %+v at generation %d", ci, s.Generation())
		}
		return ci.Gen
	}

	v2 := yearCube(t, "A", map[int]float64{2020: 1, 2021: 5}).Freeze()
	d12 := model.DiffCubes("A", v1, v2)
	g2 := put(v2, d12, t1.Add(time.Hour))
	if got, err := s.Delta("A", g1); err != nil || got != d12 {
		t.Fatalf("Delta since the preceding generation = (%p, %v), want the handed delta %p", got, err, d12)
	}
	if n := testing.AllocsPerRun(20, func() { s.Delta("A", g1) }); n != 0 {
		t.Errorf("Delta answered from the kept delta allocates %v times", n)
	}
	if h := s.State().History["A"]; len(h) != 2 || h[0].Delta != nil || h[1].Delta != d12 {
		t.Fatalf("History deltas = %v", h)
	}

	// A delta whose base is not the latest version (here: the one before).
	v3 := yearCube(t, "A", map[int]float64{2020: 1, 2021: 6}).Freeze()
	d13 := model.DiffCubes("A", v1, v3)
	g3 := put(v3, d13, t1.Add(2*time.Hour))
	// A delta that ends at another cube than the one stored.
	v4 := yearCube(t, "A", map[int]float64{2020: 1, 2021: 7}).Freeze()
	d34 := model.DiffCubes("A", v3, v4.Clone().Freeze())
	put(v4, d34, t1.Add(3*time.Hour))
	for i, v := range s.State().History["A"][2:] {
		prev := s.State().History["A"][i+1].Cube
		if v.Delta == nil || v.Delta == d13 || v.Delta == d34 || v.Delta.Base != prev || v.Delta.Current != v.Cube || len(v.Delta.Changed) != 1 {
			t.Errorf("version %d kept %+v, want the store's own delta about it and its predecessor", i+3, v.Delta)
		}
	}
	// An unfrozen cube is never stored itself, so no handed delta can name
	// what is: the one kept is the store's own, about the pair it holds.
	v5 := yearCube(t, "A", map[int]float64{2020: 1, 2021: 8})
	d45 := model.DiffCubes("A", v4, v5)
	put(v5, d45, t1.Add(4*time.Hour))
	if h := s.State().History["A"]; h[4].Delta == nil || h[4].Delta == d45 || h[4].Delta.Base != h[3].Cube ||
		h[4].Delta.Current != h[4].Cube || h[4].Cube == v5 || len(h[4].Delta.Changed) != 1 {
		t.Errorf("an unfrozen put kept the delta %+v, want the store's own about the stored pair", h[4].Delta)
	}
	// Without a kept delta the answer is still exact, by diffing.
	if d, err := s.Delta("A", g2); err != nil || len(d.Changed) != 1 || d.Changed[0].Measure != 8 {
		t.Errorf("Delta since g2 = (%v, %v)", d, err)
	}
	if d, err := s.Delta("A", g3); err != nil || len(d.Changed) != 1 {
		t.Errorf("Delta since g3 = (%v, %v)", d, err)
	}

	// Equal-asOf overwrite: the delta's base is the version that vanishes.
	cur, _ := s.Get("A")
	v6 := yearCube(t, "A", map[int]float64{2020: 1, 2021: 9}).Freeze()
	put(v6, model.DiffCubes("A", cur, v6), t1.Add(4*time.Hour))
	h := s.State().History["A"]
	if last := h[len(h)-1]; last.Cube != v6 || last.Delta != nil {
		t.Errorf("the overwriting version kept a delta from a version no longer in the history")
	}
	// The version after it chains on as usual.
	v7 := yearCube(t, "A", map[int]float64{2020: 1, 2021: 10}).Freeze()
	d67 := model.DiffCubes("A", v6, v7)
	put(v7, d67, t1.Add(5*time.Hour))
	if h = s.State().History["A"]; h[len(h)-1].Delta != d67 || h[len(h)-1].Delta.Base != h[len(h)-2].Cube {
		t.Errorf("the version after an overwrite lost its delta")
	}
}
