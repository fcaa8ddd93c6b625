package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"exlengine/internal/chase"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

// TestRunsOnRevisionsHeldAsColumns: once a SQL run has read PDR in order,
// the store holds every measure-restating revision of it as columns over
// the one key set. Every target, run in full and then incrementally on
// such versions, produces the chase solution of the same inputs held as the
// mutable cubes they were put as.
func TestRunsOnRevisionsHeldAsColumns(t *testing.T) {
	ctx := context.Background()
	at := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	data := workload.GDPSource(workload.GDPConfig{Days: 300, Regions: 3, Seed: 5})
	e := New()
	if err := e.RegisterProgram("p", workload.GDPProgram); err != nil {
		t.Fatal(err)
	}
	for _, c := range data {
		if err := e.PutCube(c, at); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(ctx, RunOn(ops.TargetSQL), RunAt(at)); err != nil {
		t.Fatal(err)
	}
	m, _ := e.Mapping("p")

	putRevision := func() {
		t.Helper()
		at = at.Add(24 * time.Hour)
		data["PDR"] = revise(t, data["PDR"], false, true, false)
		prev, _ := e.Cube("PDR")
		if err := e.PutCube(data["PDR"], at); err != nil {
			t.Fatal(err)
		}
		stored, _ := e.Cube("PDR")
		if stored == data["PDR"] || !stored.SharesKeySet(prev) || data["PDR"].Frozen() || !stored.Equal(data["PDR"], 0) {
			t.Fatal("the revision is not stored as columns over its predecessor's key set")
		}
	}
	check := func(what string, tol float64) {
		t.Helper()
		ref, err := chase.New(m).Solve(chase.Instance(data))
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range m.Derived {
			if got, _ := e.Cube(rel); !got.Equal(ref[rel], tol) {
				t.Errorf("%s: %s differs from the chase solution:\n%s", what, rel, strings.Join(got.Diff(ref[rel], tol, 5), "\n"))
			}
		}
	}
	targets := []struct {
		target ops.Target
		tol    float64
	}{{ops.TargetChase, 0}, {ops.TargetSQL, 1e-6}, {ops.TargetETL, 1e-6}, {ops.TargetFrame, 1e-6}}

	putRevision()
	for _, tg := range targets {
		if _, err := e.Run(ctx, RunOn(tg.target), RunAt(at)); err != nil {
			t.Fatalf("full run on %s: %v", tg.target, err)
		}
		check("full run on "+string(tg.target), tg.tol)
	}
	for _, tg := range targets {
		putRevision()
		rep, err := e.Run(ctx, RunOn(tg.target), RunAt(at), WithIncremental())
		if err != nil {
			t.Fatalf("incremental run on %s: %v", tg.target, err)
		}
		// One fragment holds the whole program, the stl_t black box with it:
		// the chase applies the store's own delta to the other four tgds.
		for _, fr := range rep.Fragments {
			if !fr.Incremental && !strings.Contains(fr.FallbackReason, "1 of 5 tgds recomputed in full") {
				t.Errorf("incremental run on %s did not apply the delta: %+v", tg.target, fr)
			}
		}
		check("incremental run on "+string(tg.target), tg.tol)
	}
}
