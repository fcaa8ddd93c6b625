package store

import (
	"errors"
	"testing"
	"time"

	"exlengine/internal/model"
)

// TestGetSharesFrozenInstance pins the zero-copy read contract: Get
// returns the stored frozen instance by reference, repeated reads share
// it, and in-place mutation is rejected with ErrFrozen.
func TestGetSharesFrozenInstance(t *testing.T) {
	s := New()
	c := yearCube(t, "A", map[int]float64{2000: 1, 2001: 2})
	if err := s.Put(c, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	g1, ok := s.Get("A")
	if !ok {
		t.Fatal("cube missing")
	}
	g2, _ := s.Get("A")
	if g1 != g2 {
		t.Errorf("Get cloned: two reads returned distinct instances")
	}
	if !g1.Frozen() {
		t.Errorf("stored cube is not frozen")
	}
	if g1 == c {
		t.Errorf("Put adopted the caller's mutable cube without cloning")
	}
	err := g1.Put([]model.Value{model.Per(model.NewAnnual(2002))}, 3)
	if !errors.Is(err, model.ErrFrozen) {
		t.Errorf("mutating a stored cube: err = %v, want ErrFrozen", err)
	}
	if err := g1.Replace([]model.Value{model.Per(model.NewAnnual(2000))}, 9); !errors.Is(err, model.ErrFrozen) {
		t.Errorf("Replace on a stored cube: err = %v, want ErrFrozen", err)
	}
	// The caller's original stays mutable, and a Clone of the frozen
	// instance thaws.
	if err := c.Put([]model.Value{model.Per(model.NewAnnual(2002))}, 3); err != nil {
		t.Errorf("caller's cube became immutable: %v", err)
	}
	cl := g1.Clone()
	if cl.Frozen() {
		t.Errorf("Clone of a frozen cube is frozen")
	}
	if err := cl.Put([]model.Value{model.Per(model.NewAnnual(2003))}, 4); err != nil {
		t.Errorf("clone not mutable: %v", err)
	}
}

// TestPutAdoptsFrozenCube: storing an already-frozen cube skips the
// defensive clone — the instance is immutable, so sharing it is safe.
func TestPutAdoptsFrozenCube(t *testing.T) {
	s := New()
	c := yearCube(t, "A", map[int]float64{2000: 1}).Freeze()
	if err := s.Put(c, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	g, _ := s.Get("A")
	if g != c {
		t.Errorf("Put cloned a frozen cube")
	}
}

// TestSnapshotZeroCopyAndGeneration: snapshots share the stored frozen
// instances and carry the write generation.
func TestSnapshotZeroCopyAndGeneration(t *testing.T) {
	s := New()
	if g := s.Generation(); g != 0 {
		t.Fatalf("fresh store generation = %d", g)
	}
	if err := s.Put(yearCube(t, "A", map[int]float64{2000: 1}), time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	snap1, gen1, _, _ := s.SnapshotWithGenerations()
	snap2, gen2, _, _ := s.SnapshotWithGenerations()
	if gen1 != 1 || gen2 != 1 {
		t.Errorf("generations = %d, %d, want 1, 1", gen1, gen2)
	}
	if snap1["A"] != snap2["A"] {
		t.Errorf("snapshots cloned the cube")
	}
	g, _ := s.Get("A")
	if snap1["A"] != g {
		t.Errorf("snapshot and Get disagree on the shared instance")
	}
	if _, err := s.PutAllGen(map[string]*model.Cube{
		"B": yearCube(t, "B", map[int]float64{2000: 2}),
		"C": yearCube(t, "C", map[int]float64{2000: 3}),
	}, nil, nil, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g != 2 {
		t.Errorf("generation after PutAllGen = %d, want 2 (one bump per commit)", g)
	}
	// The old snapshot is unaffected by the later write.
	if len(snap1) != 1 {
		t.Errorf("snapshot gained cubes retroactively: %d", len(snap1))
	}
}

// TestPutSameInstantLastWriteWins pins the equal-timestamp rule: a second
// version at exactly the latest asOf replaces it instead of duplicating
// the entry, so Versions stays strictly increasing and GetAsOf is
// unambiguous. Before the fix both versions were appended.
func TestPutSameInstantLastWriteWins(t *testing.T) {
	s := New()
	t0 := time.Unix(100, 0)
	if err := s.Put(yearCube(t, "A", map[int]float64{2000: 1}), t0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(yearCube(t, "A", map[int]float64{2000: 2}), t0); err != nil {
		t.Fatal(err)
	}
	vs := s.Versions("A")
	if len(vs) != 1 {
		t.Fatalf("Versions = %v, want exactly one entry at %v", vs, t0)
	}
	g, _ := s.GetAsOf("A", t0)
	if v, _ := g.Get([]model.Value{model.Per(model.NewAnnual(2000))}); v != 2 {
		t.Errorf("GetAsOf at the shared instant = %v, want the last write (2)", v)
	}
	// A later version still appends.
	if err := s.Put(yearCube(t, "A", map[int]float64{2000: 3}), t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if vs := s.Versions("A"); len(vs) != 2 {
		t.Fatalf("Versions after later write = %v, want two entries", vs)
	}
	// PutAllGen follows the same rule.
	if _, err := s.PutAllGen(map[string]*model.Cube{"A": yearCube(t, "A", map[int]float64{2000: 4})}, nil, nil, t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if vs := s.Versions("A"); len(vs) != 2 {
		t.Fatalf("Versions after equal-instant PutAllGen = %v, want two entries", vs)
	}
	g, _ = s.Get("A")
	if v, _ := g.Get([]model.Value{model.Per(model.NewAnnual(2000))}); v != 4 {
		t.Errorf("current value = %v, want 4 (PutAllGen last write wins)", v)
	}
}
