package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"exlengine/internal/difftest"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/workload"
)

// revisePDR returns the GDP source with 1 % of PDR's measures revised: the
// same dimension tuples, on PDR's key set.
func revisePDR(t *testing.T, data workload.Data) workload.Data {
	t.Helper()
	pdr := data["PDR"].Freeze()
	revised, err := pdr.Derive(pdr.Schema(), func(i int, tu model.Tuple) (float64, bool, error) {
		if i%100 == 0 {
			return tu.Measure * 1.01, true, nil
		}
		return tu.Measure, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return workload.Data{"PDR": revised, "RGDPPC": data["RGDPPC"]}
}

// derivedOf returns the latest stored version of every cube the GDP program
// derives.
func derivedOf(t *testing.T, e *Engine) map[string]*model.Cube {
	t.Helper()
	m, _ := e.Mapping("gdp")
	out := make(map[string]*model.Cube, len(m.Derived))
	for _, name := range m.Derived {
		c, ok := e.Cube(name)
		if !ok {
			t.Fatalf("no stored version of %s", name)
		}
		out[name] = c
	}
	return out
}

// checkFollowed checks that every derived version in after stands on the key
// set of its predecessor in before, and is what a run with no predecessor —
// a fresh engine's over data — stores, bit for bit.
func checkFollowed(t *testing.T, data workload.Data, before, after map[string]*model.Cube, at time.Time) {
	t.Helper()
	fresh := newGDPEngine(t, data)
	if _, err := fresh.Run(context.Background(), RunAt(at)); err != nil {
		t.Fatal(err)
	}
	want := derivedOf(t, fresh)
	for name, c := range after {
		if c == before[name] || !c.SharesKeySet(before[name]) {
			t.Errorf("%s: the re-run's version is not a new measure column on its predecessor's key set", name)
		}
		if diff := difftest.BitDiff(c, want[name]); diff != "" {
			t.Errorf("%s differs from a run with no predecessor: %s", name, diff)
		}
	}
}

// TestFullRunsFollowTheirPredecessors makes two full in-memory GDP runs with
// a 1 % revision of PDR between them. Each target of the second run builds
// its results on the versions the first stored, so every derived version it
// stores is a measure column on its predecessor's key set, and the GDP
// fragment's GROUP BY over RGDP reads the partition the first run left on
// that key set.
func TestFullRunsFollowTheirPredecessors(t *testing.T) {
	ctx := context.Background()
	data := workload.GDPSource(workload.GDPConfig{Days: 400, Regions: 3})
	tracer := obs.NewTracer()
	e := newGDPEngine(t, data, WithTracer(tracer))
	t1 := time.Date(2020, 1, 2, 0, 0, 0, 0, time.UTC)
	if _, err := e.Run(ctx, RunAt(t1)); err != nil {
		t.Fatal(err)
	}
	first := derivedOf(t, e)

	revised, t2 := revisePDR(t, data), t1.Add(24*time.Hour)
	if err := e.PutCube(revised["PDR"], t2); err != nil {
		t.Fatal(err)
	}
	tracer.Reset()
	if _, err := e.Run(ctx, RunAt(t2)); err != nil {
		t.Fatal(err)
	}
	checkFollowed(t, revised, first, derivedOf(t, e), t2)
	checkGroupsOnPartition(t, tracer, 1)
}

// checkGroupsOnPartition checks that the traced runs' GDP fragments grouped
// RGDP runs times in all, each time by the partition cached on its key set.
func checkGroupsOnPartition(t *testing.T, tracer *obs.Tracer, runs int) {
	t.Helper()
	var execs int
	for _, root := range tracer.Roots() {
		for _, fr := range root.FindAll("fragment") {
			if cubes, _ := fr.Attr("cubes"); cubes != "GDP" {
				continue
			}
			for _, sp := range fr.FindAll("sql.exec") {
				if groups, ok := sp.Attr("groups"); ok {
					execs++
					if groups != "partition" {
						t.Errorf("the GDP fragment's GROUP BY says groups=%s, want partition", groups)
					}
				}
			}
		}
	}
	if execs != runs {
		t.Errorf("%d grouped sql.exec spans under GDP fragments, want %d", execs, runs)
	}
}

// TestRunsFollowOnePredecessorConcurrently makes two full runs at once after
// a revision (run under -race): both build their results on the same stored
// versions and group RGDP by the one partition cached on its key set, at
// once, and what is stored after both is on those key sets and bit-equal to
// a run with no predecessor.
func TestRunsFollowOnePredecessorConcurrently(t *testing.T) {
	ctx := context.Background()
	data := workload.GDPSource(workload.GDPConfig{Days: 400, Regions: 3})
	tracer := obs.NewTracer()
	e := newGDPEngine(t, data, WithTracer(tracer))
	t1 := time.Date(2020, 1, 2, 0, 0, 0, 0, time.UTC)
	if _, err := e.Run(ctx, RunAt(t1)); err != nil {
		t.Fatal(err)
	}
	first := derivedOf(t, e)

	revised, t2 := revisePDR(t, data), t1.Add(24*time.Hour)
	if err := e.PutCube(revised["PDR"], t2); err != nil {
		t.Fatal(err)
	}
	tracer.Reset()
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Run(ctx, RunAt(t2)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if !t.Failed() {
		checkFollowed(t, revised, first, derivedOf(t, e), t2)
		checkGroupsOnPartition(t, tracer, 2)
	}
}
