package store

import (
	"strings"
	"testing"
	"time"

	"exlengine/internal/model"
)

func TestPutAllCommitsEveryCube(t *testing.T) {
	s := New()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	_, err := s.PutAllGen(map[string]*model.Cube{
		"A": yearCube(t, "A", map[int]float64{2000: 1}),
		"B": yearCube(t, "B", map[int]float64{2000: 2}),
	}, nil, nil, t0)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"A": 1, "B": 2} {
		c, ok := s.Get(name)
		if !ok {
			t.Fatalf("cube %s missing", name)
		}
		v, _ := c.Get([]model.Value{model.Per(model.NewAnnual(2000))})
		if v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}

func TestPutAllAtomicOnNilCube(t *testing.T) {
	s := New()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	_, err := s.PutAllGen(map[string]*model.Cube{
		"A": yearCube(t, "A", map[int]float64{2000: 1}),
		"Z": nil,
	}, nil, nil, t0)
	if err == nil || !strings.Contains(err.Error(), "nil cube") {
		t.Fatalf("err = %v, want nil-cube rejection", err)
	}
	// Nothing — not even the valid cube — was written.
	if _, ok := s.Get("A"); ok {
		t.Error("rejected PutAllGen committed a cube")
	}
	if len(s.Names()) != 0 {
		t.Errorf("rejected PutAllGen registered schemas: %v", s.Names())
	}
}

func TestPutAllAtomicOnSchemaConflict(t *testing.T) {
	s := New()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := s.Declare(yearSchema("B")); err != nil {
		t.Fatal(err)
	}
	// B exists with (t: year); the batch redefines it with two dimensions.
	bad := model.NewCube(model.NewSchema("B",
		[]model.Dim{{Name: "t", Type: model.TYear}, {Name: "r", Type: model.TString}}, "v"))
	_, err := s.PutAllGen(map[string]*model.Cube{
		"A": yearCube(t, "A", map[int]float64{2000: 1}),
		"B": bad,
	}, nil, nil, t0)
	if err == nil {
		t.Fatal("dimensionality change must be rejected")
	}
	if _, ok := s.Get("A"); ok {
		t.Error("rejected PutAllGen committed sibling cube A")
	}
}

func TestPutAllAtomicOnVersionOrder(t *testing.T) {
	s := New()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := s.Put(yearCube(t, "B", map[int]float64{2000: 9}), t0); err != nil {
		t.Fatal(err)
	}
	// The batch timestamp predates B's latest version.
	_, err := s.PutAllGen(map[string]*model.Cube{
		"A": yearCube(t, "A", map[int]float64{2000: 1}),
		"B": yearCube(t, "B", map[int]float64{2000: 10}),
	}, nil, nil, t0.Add(-time.Hour))
	if err == nil {
		t.Fatal("out-of-order version must be rejected")
	}
	if _, ok := s.Get("A"); ok {
		t.Error("rejected PutAllGen committed sibling cube A")
	}
	// B keeps its original value.
	b, _ := s.Get("B")
	if v, _ := b.Get([]model.Value{model.Per(model.NewAnnual(2000))}); v != 9 {
		t.Errorf("B overwritten: %v", v)
	}
}

func TestPutAllIsolatesCaller(t *testing.T) {
	s := New()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	c := yearCube(t, "A", map[int]float64{2000: 1})
	if _, err := s.PutAllGen(map[string]*model.Cube{"A": c}, nil, nil, t0); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's cube after the commit must not reach the store.
	if err := c.Replace([]model.Value{model.Per(model.NewAnnual(2000))}, 99); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("A")
	if v, _ := got.Get([]model.Value{model.Per(model.NewAnnual(2000))}); v != 1 {
		t.Errorf("stored cube aliases caller memory: %v", v)
	}
}
