package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exlengine/internal/model"
)

// TestVersionsDefensiveCopy pins the Versions contract: the returned
// slice is sorted ascending and is the caller's to mutate — writing into
// it must not corrupt the store's version history.
func TestVersionsDefensiveCopy(t *testing.T) {
	s := New()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		c := yearCube(t, "A", map[int]float64{2019: float64(i)})
		if err := s.Put(c, t0.Add(time.Duration(i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	vs := s.Versions("A")
	if len(vs) != 4 {
		t.Fatalf("Versions = %v", vs)
	}
	for i := 1; i < len(vs); i++ {
		if !vs[i-1].Before(vs[i]) {
			t.Fatalf("Versions not sorted ascending: %v", vs)
		}
	}
	// Scribble over the returned slice; the store must be unaffected.
	for i := range vs {
		vs[i] = time.Time{}
	}
	vs2 := s.Versions("A")
	if len(vs2) != 4 || vs2[0].IsZero() {
		t.Fatalf("mutating the returned slice corrupted the store: %v", vs2)
	}
	if !vs2[0].Equal(t0) || !vs2[3].Equal(t0.Add(3*time.Hour)) {
		t.Fatalf("Versions after scribble = %v", vs2)
	}
	// As-of reads still resolve against the intact history.
	c, ok := s.GetAsOf("A", t0.Add(90*time.Minute))
	if !ok {
		t.Fatal("GetAsOf after scribble")
	}
	if v, _ := c.Get([]model.Value{model.Per(model.NewAnnual(2019))}); v != 1 {
		t.Fatalf("as-of value = %v, want 1", v)
	}
}

// TestHistorySharesFrozenCubes pins the contract of the histories State
// returns: entries are sorted, frozen, and shared (zero-copy) with the store.
func TestHistorySharesFrozenCubes(t *testing.T) {
	s := New()
	t0 := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		c := yearCube(t, "A", map[int]float64{2019: float64(i)})
		if err := s.Put(c, t0.Add(time.Duration(i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	h := s.State().History["A"]
	if len(h) != 3 {
		t.Fatalf("History has %d entries", len(h))
	}
	for i, v := range h {
		if !v.Cube.Frozen() {
			t.Fatalf("history entry %d is not frozen", i)
		}
		if i > 0 && !h[i-1].AsOf.Before(v.AsOf) {
			t.Fatalf("history not sorted: %v before %v", h[i-1].AsOf, v.AsOf)
		}
	}
	cur, _ := s.Get("A")
	if h[2].Cube != cur {
		t.Error("history tail is not the shared current version")
	}
}

// TestConcurrentWritesVsSnapshots races writers (Put on distinct cubes,
// an atomic PutAllGen pair) against snapshot readers. Run under -race. It
// asserts the MVCC invariants the engine relies on:
//
//   - the generation observed by SnapshotWithGenerations never decreases;
//   - a snapshot's generation g means exactly the first g commits are
//     visible — here checked through the PutAllGen pair, which must appear
//     in lockstep in every snapshot (all-or-nothing visibility).
func TestConcurrentWritesVsSnapshots(t *testing.T) {
	s := New()
	const writers = 4
	const puts = 50
	if err := s.Declare(yearSchema("X")); err != nil {
		t.Fatal(err)
	}
	if err := s.Declare(yearSchema("Y")); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, writers+2)

	// Writers: each owns one cube, so version ordering never conflicts.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("W%d", w)
			for k := 1; k <= puts; k++ {
				c := yearCube(t, name, map[int]float64{2019: float64(k)})
				if err := s.Put(c, time.Unix(int64(k), 0)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// One PutAllGen writer keeps X and Y in lockstep, atomically.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= puts; k++ {
			pair := map[string]*model.Cube{
				"X": yearCube(t, "X", map[int]float64{2019: float64(k)}),
				"Y": yearCube(t, "Y", map[int]float64{2019: float64(k)}),
			}
			if _, err := s.PutAllGen(pair, nil, nil, time.Unix(int64(k), 0)); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Readers: generation monotonicity and PutAllGen atomicity.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				snap, gen, _, _ := s.SnapshotWithGenerations()
				if gen < last {
					errc <- fmt.Errorf("generation went backwards: %d after %d", gen, last)
					return
				}
				last = gen
				x, okx := snap["X"]
				y, oky := snap["Y"]
				if okx != oky {
					errc <- fmt.Errorf("PutAllGen pair half-visible at generation %d", gen)
					return
				}
				if okx {
					vx, _ := x.Get([]model.Value{model.Per(model.NewAnnual(2019))})
					vy, _ := y.Get([]model.Value{model.Per(model.NewAnnual(2019))})
					if vx != vy {
						errc <- fmt.Errorf("PutAllGen pair torn at generation %d: X=%v Y=%v", gen, vx, vy)
						return
					}
				}
				for _, c := range snap {
					if !c.Frozen() {
						errc <- fmt.Errorf("snapshot cube not frozen at generation %d", gen)
						return
					}
				}
			}
		}()
	}

	// Wait for the writers by watching the generation — the total commit
	// count is fixed — then release the readers.
	for s.Generation() < uint64((writers+1)*puts) {
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if g := s.Generation(); g != uint64((writers+1)*puts) {
		t.Fatalf("generation = %d, want %d", g, (writers+1)*puts)
	}
}
