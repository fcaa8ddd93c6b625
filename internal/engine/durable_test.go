package engine

import (
	"context"
	"testing"
	"time"

	"exlengine/internal/store/durable"
	"exlengine/internal/workload"
)

// TestRunOverDurableStore drives the whole engine pipeline against the
// crash-safe store: register, load, run, then reopen the directory in a
// fresh process-equivalent (new engine, new store) and check that the
// results, the program re-registration and the write generation all
// carry across the restart.
func TestRunOverDurableStore(t *testing.T) {
	dir := t.TempDir()
	data := workload.GDPSource(workload.GDPConfig{Days: 100, Regions: 2})

	st, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := newGDPEngine(t, data, WithStore(st))
	rep, err := e.Run(context.Background(), RunAt(time.Unix(100, 0)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, name := range []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG"} {
		c, ok := e.Cube(name)
		if !ok {
			t.Fatalf("derived cube %s missing after run", name)
		}
		want[name] = float64(c.Len())
	}
	genAfterRun := st.Generation()
	if len(rep.Plan) != 5 {
		t.Fatalf("plan = %v", rep.Plan)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new store over the same directory, a new engine.
	st2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if g := st2.Generation(); g != genAfterRun {
		t.Fatalf("generation after reopen = %d, want %d", g, genAfterRun)
	}
	e2 := New(WithStore(st2))
	// Re-registering the same program against the persisted catalog must
	// succeed: the store already holds the program's own cubes.
	if err := e2.RegisterProgram("gdp", workload.GDPProgram); err != nil {
		t.Fatalf("re-registration against persisted catalog: %v", err)
	}
	// The previous run's results are readable without running anything.
	for name, n := range want {
		c, ok := e2.Cube(name)
		if !ok {
			t.Fatalf("derived cube %s lost across restart", name)
		}
		if float64(c.Len()) != n {
			t.Fatalf("cube %s has %d tuples after restart, want %v", name, c.Len(), n)
		}
	}
	// And a new run persists on top, atomically, bumping the generation
	// by exactly one PutAllGen.
	if _, err := e2.Run(context.Background(), RunAt(time.Unix(200, 0))); err != nil {
		t.Fatal(err)
	}
	if g := st2.Generation(); g != genAfterRun+1 {
		t.Fatalf("generation after second run = %d, want %d", g, genAfterRun+1)
	}
	// Historicity: the first run's results are still addressable as-of.
	old, ok := e2.CubeAsOf("GDP", time.Unix(150, 0))
	if !ok {
		t.Fatal("as-of read of first run's GDP lost")
	}
	if float64(old.Len()) != want["GDP"] {
		t.Fatal("as-of read returned the wrong version")
	}
}

// TestRegisterConflictStillRejected checks the re-registration fix did
// not open the door to genuine conflicts: a second program redefining
// another program's cube, or a persisted cube re-registered with
// different dimensions, must still fail.
func TestRegisterConflictStillRejected(t *testing.T) {
	e := New()
	if err := e.RegisterProgram("p1", "cube A(t: year) measure v\nB := A * 2\n"); err != nil {
		t.Fatal(err)
	}
	// Another program may not redefine p1's cubes.
	if err := e.RegisterProgram("p2", "cube A(t: year) measure v\n"); err == nil {
		t.Fatal("redeclaring another program's elementary cube must fail")
	}
	if err := e.RegisterProgram("p3", "cube C(t: year) measure v\nB := C * 3\n"); err == nil {
		t.Fatal("rederiving another program's derived cube must fail")
	}

	// Against a persisted catalog, same name with different dimensions
	// must fail even though idempotent re-registration is allowed.
	dir := t.TempDir()
	st, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(WithStore(st))
	if err := e2.RegisterProgram("p", "cube A(t: year) measure v\nB := A * 2\n"); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e3 := New(WithStore(st2))
	err = e3.RegisterProgram("p", "cube A(t: year, r: string) measure v\nB := A * 2\n")
	if err == nil {
		t.Fatal("re-registration with different dimensions must fail")
	}
}
