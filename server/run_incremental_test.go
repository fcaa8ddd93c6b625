package server

import (
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"exlengine/internal/model"
)

// TestRunIncrementalHTTP drives the "incremental": true run option end
// to end: an incremental tenant must serve byte-identical derived CSV to
// a full-recomputation tenant across a data update.
func TestRunIncrementalHTTP(t *testing.T) {
	_, base := newTestServer(t, Config{})
	fullSid := setupTenant(t, base, "full", 1, 6)
	incrSid := setupTenant(t, base, "incr", 1, 6)

	runOK := func(sid string, body map[string]any) {
		t.Helper()
		if status, out := postJSON(t, base+"/v1/run", sid, body); status != http.StatusOK {
			t.Fatalf("run: status %d (%v)", status, out)
		}
	}
	getOut := func(sid string) string {
		t.Helper()
		status, b := doReq(t, http.MethodGet, base+"/v1/cubes/OUT", sid, "", nil)
		if status != http.StatusOK {
			t.Fatalf("get OUT: status %d (%s)", status, b)
		}
		return string(b)
	}

	at0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).Format(time.RFC3339)
	runOK(fullSid, map[string]any{"as_of": at0})
	runOK(incrSid, map[string]any{"as_of": at0, "incremental": true})
	if w, g := getOut(fullSid), getOut(incrSid); w != g {
		t.Fatalf("initial incremental OUT differs from full:\n%s\nvs\n%s", w, g)
	}

	// Update SRC (every value changes, two rows appended) and re-run.
	next := testCSV(t, 3, 8)
	for _, sid := range []string{fullSid, incrSid} {
		if status, b := doReq(t, http.MethodPut, base+"/v1/cubes/SRC", sid, "text/csv", next); status != http.StatusOK {
			t.Fatalf("put SRC v2: status %d (%s)", status, b)
		}
	}
	at1 := time.Date(2024, 1, 2, 0, 0, 0, 0, time.UTC).Format(time.RFC3339)
	runOK(fullSid, map[string]any{"as_of": at1})
	runOK(incrSid, map[string]any{"as_of": at1, "incremental": true})
	if w, g := getOut(fullSid), getOut(incrSid); w != g {
		t.Fatalf("post-update incremental OUT differs from full:\n%s\nvs\n%s", w, g)
	}
}

// TestGetCubeNonFiniteNoTorn200 pins the store/CSV boundary fix: a cube
// version holding a non-finite measure must produce a clean error
// response, never a 200 whose CSV body breaks off mid-stream.
func TestGetCubeNonFiniteNoTorn200(t *testing.T) {
	srv, base := newTestServer(t, Config{})
	sid := setupTenant(t, base, "t1", 1, 4)

	// Poison SRC with a NaN version through the engine, below the HTTP
	// surface — exactly what a buggy producer or a NaN-yielding
	// computation would do.
	tnt, err := srv.tenants.acquire("t1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.tenants.release(tnt, 10*time.Second); err != nil {
			t.Errorf("release: %v", err)
		}
	}()
	sch := model.NewSchema("SRC", []model.Dim{{Name: "t", Type: model.TMonth}}, "v")
	bad := model.NewCube(sch)
	for i := 0; i < 4; i++ {
		v := float64(i)
		if i == 2 {
			v = math.NaN()
		}
		p := model.NewMonthly(2020, time.January).Shift(int64(i))
		if err := bad.Put([]model.Value{model.Per(p)}, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := tnt.eng.PutCube(bad, time.Now()); err != nil {
		t.Fatal(err)
	}

	status, body := doReq(t, http.MethodGet, base+"/v1/cubes/SRC", sid, "", nil)
	if status == http.StatusOK {
		t.Fatalf("non-finite cube served with status 200; body:\n%s", body)
	}
	if !strings.Contains(string(body), "non-finite") {
		t.Errorf("error body does not name the non-finite measure: %s", body)
	}
}

// TestRunIncrementalAfterResurrection: a durable tenant that was idle-evicted
// and re-acquired runs incrementally as one that never was. After a full run
// on each, the evicted tenant's last session is reaped; a new session
// registers the program again. Then both PUT the same revision of SRC and run
// {"incremental": true}: their /v1/metrics count the same maintained and
// fell-back fragments, and they serve the same OUT.
func TestRunIncrementalAfterResurrection(t *testing.T) {
	_, keptBase := newTestServer(t, Config{DataDir: t.TempDir()})
	srv, evictedBase := newTestServer(t, Config{DataDir: t.TempDir(), SessionIdleTimeout: 100 * time.Millisecond})
	at0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).Format(time.RFC3339)
	at1 := time.Date(2024, 1, 2, 0, 0, 0, 0, time.UTC).Format(time.RFC3339)
	runOK := func(base, sid string, body map[string]any) {
		t.Helper()
		if status, out := postJSON(t, base+"/v1/run", sid, body); status != http.StatusOK {
			t.Fatalf("run: status %d (%v)", status, out)
		}
	}
	// revise PUTs the revision and runs incrementally; it returns the
	// tenant's incremental counters and OUT.
	revise := func(base, sid string) (counters []string, out string) {
		t.Helper()
		if status, b := doReq(t, http.MethodPut, base+"/v1/cubes/SRC", sid, "text/csv", testCSV(t, 3, 14)); status != http.StatusOK {
			t.Fatalf("put SRC v2: status %d (%s)", status, b)
		}
		runOK(base, sid, map[string]any{"as_of": at1, "incremental": true})
		status, metrics := doReq(t, http.MethodGet, base+"/v1/metrics", sid, "", nil)
		if status != http.StatusOK {
			t.Fatalf("metrics: status %d", status)
		}
		for _, line := range strings.Split(string(metrics), "\n") {
			if strings.Contains(line, "dispatch_incremental_") {
				counters = append(counters, line)
			}
		}
		status, b := doReq(t, http.MethodGet, base+"/v1/cubes/OUT", sid, "", nil)
		if status != http.StatusOK {
			t.Fatalf("get OUT: status %d (%s)", status, b)
		}
		return counters, string(b)
	}

	kept := setupTenant(t, keptBase, "dur", 1, 12)
	runOK(keptBase, kept, map[string]any{"as_of": at0})
	wantCounters, wantOut := revise(keptBase, kept)
	if !slices.ContainsFunc(wantCounters, func(l string) bool { return strings.Contains(l, "fragments_total") }) {
		t.Fatalf("the tenant that stayed open maintained nothing: %v", wantCounters)
	}

	evicted := setupTenant(t, evictedBase, "dur", 1, 12)
	runOK(evictedBase, evicted, map[string]any{"as_of": at0})
	deadline := time.Now().Add(10 * time.Second)
	for srv.tenants.count() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the idle tenant was not evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resurrected := openSession(t, evictedBase, "dur")
	if status, out := postJSON(t, evictedBase+"/v1/programs", resurrected,
		map[string]string{"name": "prog", "source": testProgram}); status != http.StatusCreated {
		t.Fatalf("re-register after resurrection: status %d (%v)", status, out)
	}
	gotCounters, gotOut := revise(evictedBase, resurrected)
	if !slices.Equal(gotCounters, wantCounters) {
		t.Errorf("the resurrected tenant counts %v, the one that stayed open %v", gotCounters, wantCounters)
	}
	if gotOut != wantOut {
		t.Errorf("the resurrected tenant serves OUT\n%s\nthe one that stayed open\n%s", gotOut, wantOut)
	}
}
