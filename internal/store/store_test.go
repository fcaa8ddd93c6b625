package store

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"exlengine/internal/model"
)

func yearSchema(name string) model.Schema {
	return model.NewSchema(name, []model.Dim{{Name: "t", Type: model.TYear}}, "v")
}

func yearCube(t *testing.T, name string, vals map[int]float64) *model.Cube {
	t.Helper()
	c := model.NewCube(yearSchema(name))
	for y, v := range vals {
		if err := c.Put([]model.Value{model.Per(model.NewAnnual(y))}, v); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestDeclareAndSchema(t *testing.T) {
	s := New()
	if err := s.Declare(yearSchema("A")); err != nil {
		t.Fatal(err)
	}
	// Identical re-declaration is fine.
	if err := s.Declare(yearSchema("A")); err != nil {
		t.Fatal(err)
	}
	// Changing dimensionality is not.
	other := model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TYear}, {Name: "r", Type: model.TString}}, "v")
	if err := s.Declare(other); err == nil {
		t.Error("conflicting re-declaration must fail")
	}
	if _, ok := s.Schema("A"); !ok {
		t.Error("Schema lookup")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "A" {
		t.Errorf("Names = %v", names)
	}
}

func TestVersioning(t *testing.T) {
	s := New()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	t1 := t0.Add(24 * time.Hour)
	t2 := t0.Add(48 * time.Hour)

	v1 := yearCube(t, "A", map[int]float64{2019: 1})
	v2 := yearCube(t, "A", map[int]float64{2019: 2})
	if err := s.Put(v1, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(v2, t2); err != nil {
		t.Fatal(err)
	}

	cur, ok := s.Get("A")
	if !ok {
		t.Fatal("Get")
	}
	if got, _ := cur.Get([]model.Value{model.Per(model.NewAnnual(2019))}); got != 2 {
		t.Errorf("current = %v", got)
	}

	// As-of reads pick the version valid at the instant.
	old, ok := s.GetAsOf("A", t1)
	if !ok {
		t.Fatal("GetAsOf t1")
	}
	if got, _ := old.Get([]model.Value{model.Per(model.NewAnnual(2019))}); got != 1 {
		t.Errorf("as-of t1 = %v", got)
	}
	if _, ok := s.GetAsOf("A", t0.Add(-time.Hour)); ok {
		t.Error("as-of before first version must miss")
	}
	if vs := s.Versions("A"); len(vs) != 2 || !vs[0].Equal(t0) {
		t.Errorf("Versions = %v", vs)
	}

	// Writing an older version than the latest is rejected with the
	// typed stale-version error HTTP callers classify on.
	if err := s.Put(v1, t1); !errors.Is(err, ErrStaleVersion) {
		t.Errorf("out-of-order Put = %v, want ErrStaleVersion", err)
	}
	// Dimensionality change via Put is rejected.
	bad := model.NewCube(model.NewSchema("A", []model.Dim{{Name: "x", Type: model.TInt}, {Name: "y", Type: model.TInt}}, "v"))
	if err := s.Put(bad, t2.Add(time.Hour)); err == nil {
		t.Error("Put with different dims must fail")
	}
}

func TestPutIsolation(t *testing.T) {
	s := New()
	c := yearCube(t, "A", map[int]float64{2019: 1})
	_ = s.Put(c, time.Unix(0, 0))
	// Mutating the original after Put must not affect the stored version.
	_ = c.Replace([]model.Value{model.Per(model.NewAnnual(2019))}, 99)
	got, _ := s.Get("A")
	if v, _ := got.Get([]model.Value{model.Per(model.NewAnnual(2019))}); v != 1 {
		t.Error("store must deep-copy on Put")
	}
	// Mutating the returned cube must not affect the store.
	_ = got.Replace([]model.Value{model.Per(model.NewAnnual(2019))}, 77)
	again, _ := s.Get("A")
	if v, _ := again.Get([]model.Value{model.Per(model.NewAnnual(2019))}); v != 1 {
		t.Error("store must deep-copy on Get")
	}
}

func TestSnapshot(t *testing.T) {
	s := New()
	_ = s.Put(yearCube(t, "A", map[int]float64{2019: 1}), time.Unix(0, 0))
	_ = s.Put(yearCube(t, "B", map[int]float64{2019: 2}), time.Unix(0, 0))
	snap, _, _, _ := s.SnapshotWithGenerations()
	if len(snap) != 2 || snap["A"] == nil || snap["B"] == nil {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	sch := model.NewSchema("PQR",
		[]model.Dim{{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "p")
	c := model.NewCube(sch)
	_ = c.Put([]model.Value{model.Per(model.NewQuarterly(2001, 1)), model.Str("north")}, 15)
	_ = c.Put([]model.Value{model.Per(model.NewQuarterly(2001, 2)), model.Str("south")}, 350.25)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "q,r,p\n") {
		t.Errorf("CSV header: %q", text)
	}
	if !strings.Contains(text, "2001-Q1,north,15") {
		t.Errorf("CSV body: %q", text)
	}

	back, err := ReadCSV(strings.NewReader(text), sch)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c, model.Eps) {
		t.Error("CSV round trip lost data")
	}
}

func TestCSVErrors(t *testing.T) {
	sch := yearSchema("A")
	cases := []string{
		"",                      // no header
		"x,v\n",                 // wrong header names
		"t\n",                   // wrong header arity
		"t,v\n2019,notanumber",  // bad measure
		"t,v\nnotayear,1",       // bad dimension
		"t,v\n2019,1\n2019,2\n", // egd violation
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), sch); err == nil {
			t.Errorf("ReadCSV(%q): want error", in)
		}
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	if _, ok := s.Get("NOPE"); ok {
		t.Error("missing cube must not be found")
	}
	if _, ok := s.GetAsOf("NOPE", time.Now()); ok {
		t.Error("missing cube as-of must not be found")
	}
	if vs := s.Versions("NOPE"); len(vs) != 0 {
		t.Error("missing cube has no versions")
	}
}
