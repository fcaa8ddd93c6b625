package engine

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"exlengine/internal/chase"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/store"
	"exlengine/internal/store/durable"
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

// TestRevisionStaysAPatchThroughARun: a CSV revision that restates one PDR
// measure in fifty, read onto its predecessor, is stored on a durable store
// as a patch over the predecessor's column and logged as a delta. The
// incremental run of the GDP program that follows and the CSV reads of PDR,
// PQR, GDP and PCHNG read PDR through its patch, so afterwards it is still
// one, and a reopened store holds what was put.
func TestRevisionStaysAPatchThroughARun(t *testing.T) {
	ctx := context.Background()
	at := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	reg := obs.NewRegistry()
	st, err := durable.Open(t.TempDir(), durable.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithStore(st))
	if err := e.RegisterProgram("p", workload.GDPProgram); err != nil {
		t.Fatal(err)
	}
	for _, c := range workload.GDPSource(workload.GDPConfig{Days: 400, Regions: 4, Seed: 3}) {
		if err := e.PutCube(c, at); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(ctx, RunAt(at), WithIncremental()); err != nil {
		t.Fatal(err)
	}

	prev, _ := e.Cube("PDR")
	rev, restated := prev.Clone(), 0
	for i, tu := range prev.Tuples() {
		if i%50 == 7 {
			if err := rev.Replace(tu.Dims, tu.Measure+1); err != nil {
				t.Fatal(err)
			}
			restated++
		}
	}
	var body bytes.Buffer
	if err := store.WriteCSV(&body, rev); err != nil {
		t.Fatal(err)
	}
	deltas := reg.Counter(obs.MetricStoreWALDeltaCubes).Value()
	at = at.Add(24 * time.Hour)
	if err := e.LoadCSV("PDR", &body, at); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(obs.MetricStoreWALDeltaCubes).Value() - deltas; n != 1 {
		t.Errorf("the revision logged %d cubes as deltas, want 1", n)
	}
	if _, err := e.Run(ctx, RunAt(at), WithIncremental()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"PDR", "PQR", "GDP", "PCHNG"} {
		c, _ := e.Cube(name)
		if err := store.WriteCSV(io.Discard, c); err != nil {
			t.Fatal(err)
		}
	}
	latest, _ := e.Cube("PDR")
	if k, ok := latest.View().Patched(); !ok || k != restated || !latest.SharesKeySet(prev) {
		t.Fatalf("PDR after the run: a patch %v of %d rows (want %d), on its predecessor's key set %v", ok, k, restated, latest.SharesKeySet(prev))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := durable.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, _ := re.Get("PDR"); !got.Equal(rev, 0) {
		t.Fatal("the reopened store does not hold the revision")
	}
}
