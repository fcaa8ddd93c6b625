package server

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"exlengine/internal/obs"
)

// TestTenantIsolation is the proving test for multi-tenancy: two tenants
// register the SAME program under the SAME name, load the SAME cube
// names with different data, and run concurrently. Each must see only
// its own results, its own metrics, and its own compiled mapping.
func TestTenantIsolation(t *testing.T) {
	srv, base := newTestServer(t, Config{})

	// scaleA=1 → OUT values 2,4,... ; scaleB=100 → OUT values 200,400,...
	sidA := setupTenant(t, base, "tenant-a", 1, 12)
	sidB := setupTenant(t, base, "tenant-b", 100, 12)

	// The tenants are backed by distinct engines and registries.
	sessA, _ := srv.sessions.get(sidA)
	sessB, _ := srv.sessions.get(sidB)
	if sessA.tenant == sessB.tenant || sessA.tenant.eng == sessB.tenant.eng {
		t.Fatalf("tenants share an engine")
	}
	if sessA.tenant.metrics == sessB.tenant.metrics {
		t.Fatalf("tenants share a metrics registry")
	}

	// Run both tenants concurrently, several times each.
	const runs = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*runs)
	for _, sid := range []string{sidA, sidB} {
		for i := 0; i < runs; i++ {
			wg.Add(1)
			go func(sid string) {
				defer wg.Done()
				b, _ := json.Marshal(map[string]any{})
				req, _ := http.NewRequest(http.MethodPost, base+"/v1/run", bytes.NewReader(b))
				req.Header.Set(SessionHeader, sid)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("run status %d", resp.StatusCode)
				}
			}(sid)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Each tenant reads back its own derived data, not the other's.
	firstOut := func(sid string) string {
		status, body := doReq(t, http.MethodGet, base+"/v1/cubes/OUT", sid, "", nil)
		if status != http.StatusOK {
			t.Fatalf("get OUT: status %d (%s)", status, body)
		}
		recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return recs[1][1]
	}
	if got := firstOut(sidA); got != "2" {
		t.Fatalf("tenant-a OUT[0] = %q, want 2", got)
	}
	if got := firstOut(sidB); got != "200" {
		t.Fatalf("tenant-b OUT[0] = %q, want 200", got)
	}

	// Metrics isolate: each tenant registry saw exactly its own runs.
	for _, sess := range []*session{sessA, sessB} {
		if got := sess.tenant.metrics.Counter(obs.MetricRuns).Value(); got != runs {
			t.Errorf("tenant %s engine_runs_total = %d, want %d", sess.tenant.name, got, runs)
		}
	}

	// Mappings isolate: both tenants compiled identical program text, and
	// each engine holds the mapping it compiled itself.
	mA, okA := sessA.tenant.eng.Mapping("prog")
	mB, okB := sessB.tenant.eng.Mapping("prog")
	if !okA || !okB {
		t.Fatalf("program prog missing: tenant-a %v, tenant-b %v", okA, okB)
	}
	if mA == mB {
		t.Errorf("tenants share one compiled mapping")
	}

	// Run lists are tenant-scoped: A sees its runs plus nothing of B's.
	status, out := getJSON(t, base+"/v1/runs", sidA)
	if status != http.StatusOK {
		t.Fatalf("run list: status %d", status)
	}
	list, _ := out["runs"].([]any)
	if len(list) != runs {
		t.Fatalf("tenant-a sees %d runs, want %d", len(list), runs)
	}
	for _, e := range list {
		if tn := e.(map[string]any)["tenant"]; tn != "tenant-a" {
			t.Fatalf("tenant-a run list leaked a run of %v", tn)
		}
	}
}

// TestSessionExpiryDurable: an idle session is reaped, which shuts the
// tenant down and closes its durable store cleanly; a new session in the
// same tenant resurrects every committed cube version from the WAL.
func TestSessionExpiryDurable(t *testing.T) {
	dir := t.TempDir()
	srv, base := newTestServer(t, Config{
		DataDir:            dir,
		SessionIdleTimeout: 100 * time.Millisecond,
	})

	sid := setupTenant(t, base, "dur", 1, 12)
	if status, out := postJSON(t, base+"/v1/run", sid, map[string]any{}); status != http.StatusOK {
		t.Fatalf("run: status %d (%v)", status, out)
	}

	// Go idle; the reaper must close the session AND the tenant, and count
	// the expiry — which it does after the close returns, so wait for all
	// three.
	expired := srv.cfg.Metrics.Counter(MetricSessionsExpired)
	deadline := time.Now().Add(10 * time.Second)
	for srv.sessions.count() != 0 || srv.tenants.count() != 0 || expired.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("reaper left sessions=%d tenants=%d, sessions_expired=%d",
				srv.sessions.count(), srv.tenants.count(), expired.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status, _ := doReq(t, http.MethodGet, base+"/v1/programs", sid, "", nil); status != http.StatusUnauthorized {
		t.Fatalf("reaped session: status %d, want 401", status)
	}

	// Resurrect: a fresh session reopens the tenant from disk with both
	// the elementary and the derived cube intact.
	sid2 := openSession(t, base, "dur")
	for _, cube := range []string{"SRC", "OUT"} {
		status, body := doReq(t, http.MethodGet, base+"/v1/cubes/"+cube, sid2, "", nil)
		if status != http.StatusOK {
			t.Fatalf("get %s after resurrection: status %d (%s)", cube, status, body)
		}
		recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 13 {
			t.Fatalf("%s has %d rows after resurrection, want 13", cube, len(recs))
		}
	}
	// Programs are process state, not store state: re-registration against
	// the persisted catalog is idempotent and running works again.
	if status, out := postJSON(t, base+"/v1/programs", sid2,
		map[string]string{"name": "prog", "source": testProgram}); status != http.StatusCreated {
		t.Fatalf("re-register after resurrection: status %d (%v)", status, out)
	}
	if status, out := postJSON(t, base+"/v1/run", sid2, map[string]any{}); status != http.StatusOK {
		t.Fatalf("run after resurrection: status %d (%v)", status, out)
	}
}

// TestReRegisterTwoProgramsAfterEviction: a durable tenant holding two
// programs, the second deriving from the first and from a cube of its own,
// is idle-evicted; a new session in the tenant registers both again over
// the store that holds every cube of both, and runs.
func TestReRegisterTwoProgramsAfterEviction(t *testing.T) {
	programs := []map[string]string{
		{"name": "p1", "source": "cube S(i: int) measure v\nA := S * 2\n"},
		{"name": "p2", "source": "cube T(i: int) measure w\nB := A + T\n"},
	}
	register := func(base, sid string) {
		t.Helper()
		for _, p := range programs {
			if status, out := postJSON(t, base+"/v1/programs", sid, p); status != http.StatusCreated {
				t.Fatalf("register %s: status %d (%v)", p["name"], status, out)
			}
		}
	}
	srv, base := newTestServer(t, Config{DataDir: t.TempDir(), SessionIdleTimeout: 100 * time.Millisecond})

	sid := openSession(t, base, "pair")
	register(base, sid)
	for cube, body := range map[string]string{"S": "i,v\n1,1\n2,2\n", "T": "i,w\n1,10\n2,20\n"} {
		if status, out := doReq(t, http.MethodPut, base+"/v1/cubes/"+cube, sid, "text/csv", []byte(body)); status != http.StatusOK {
			t.Fatalf("put %s: status %d (%s)", cube, status, out)
		}
	}
	if status, out := postJSON(t, base+"/v1/run", sid, map[string]any{}); status != http.StatusOK {
		t.Fatalf("run: status %d (%v)", status, out)
	}

	deadline := time.Now().Add(10 * time.Second)
	for srv.sessions.count() != 0 || srv.tenants.count() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reaper left sessions=%d tenants=%d", srv.sessions.count(), srv.tenants.count())
		}
		time.Sleep(10 * time.Millisecond)
	}

	sid2 := openSession(t, base, "pair")
	register(base, sid2)
	if status, out := postJSON(t, base+"/v1/run", sid2, map[string]any{}); status != http.StatusOK {
		t.Fatalf("run after re-registration: status %d (%v)", status, out)
	}
	status, body := doReq(t, http.MethodGet, base+"/v1/cubes/B", sid2, "", nil)
	if status != http.StatusOK {
		t.Fatalf("get B: status %d (%s)", status, body)
	}
	if want := "i,v\n1,12\n2,24\n"; string(body) != want {
		t.Errorf("B = %q, want %q", body, want)
	}
}

// TestGracefulShutdownDurable: every commit acked before Shutdown is on
// disk afterward, even with runs in flight when shutdown starts.
func TestGracefulShutdownDurable(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{DataDir: dir})
	ts := httptest.NewServer(srv.Handler())
	base := ts.URL

	sid := setupTenant(t, base, "dur", 1, 12)

	// Commit five more acked versions of SRC at distinct instants (the
	// store only accepts versions newer than the latest, so they step
	// forward from now).
	base0 := time.Now().UTC().Truncate(time.Second)
	asOfs := make([]string, 0, 5)
	for i := 1; i <= 5; i++ {
		at := base0.Add(time.Duration(i) * time.Minute).Format(time.RFC3339)
		url := base + "/v1/cubes/SRC?as_of=" + at
		if status, body := doReq(t, http.MethodPut, url, sid, "text/csv",
			testCSV(t, float64(i), 12)); status != http.StatusOK {
			t.Fatalf("put version %d: status %d (%s)", i, status, body)
		}
		asOfs = append(asOfs, at)
	}
	// Leave runs in flight while shutdown begins.
	for i := 0; i < 3; i++ {
		if status, _ := postJSON(t, base+"/v1/run", sid, map[string]any{"async": true}); status != http.StatusAccepted {
			t.Fatalf("async run: status %d", status)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()

	// A brand-new server over the same data dir must see every acked
	// version.
	srv2, base2 := newTestServer(t, Config{DataDir: dir})
	_ = srv2
	sid2 := openSession(t, base2, "dur")
	for i, at := range asOfs {
		status, body := doReq(t, http.MethodGet, base2+"/v1/cubes/SRC?as_of="+at, sid2, "", nil)
		if status != http.StatusOK {
			t.Fatalf("version %d (%s) lost after shutdown: status %d (%s)", i+1, at, status, body)
		}
		recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		// Version i+1 was written with scale i+1: first value is i+1.
		if want := fmt.Sprintf("%d", i+1); recs[1][1] != want {
			t.Fatalf("version %s first value = %q, want %s", at, recs[1][1], want)
		}
	}
}
