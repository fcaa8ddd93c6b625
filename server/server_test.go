package server

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exlengine/internal/dispatch"
	"exlengine/internal/engine"
	"exlengine/internal/model"
	"exlengine/internal/store"
)

// testProgram is a minimal two-cube catalog: the derived OUT doubles the
// elementary SRC.
const testProgram = `
cube SRC(t: month) measure v
OUT := SRC * 2
`

// testCSV serializes a SRC cube with n monthly values scale*1..scale*n.
func testCSV(t *testing.T, scale float64, n int) []byte {
	t.Helper()
	sch := model.NewSchema("SRC",
		[]model.Dim{{Name: "t", Type: model.TMonth}}, "v")
	c := model.NewCube(sch)
	for i := 0; i < n; i++ {
		p := model.NewMonthly(2020, time.January).Shift(int64(i))
		if err := c.Put([]model.Value{model.Per(p)}, scale*float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := store.WriteCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer starts a Server over httptest and wires cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts.URL
}

// doReq issues one request and returns status + body.
func doReq(t *testing.T, method, url, sid, ctype string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if sid != "" {
		req.Header.Set(SessionHeader, sid)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// postJSON posts v as JSON and decodes the response into a generic map.
func postJSON(t *testing.T, url, sid string, v any) (int, map[string]any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	status, body := doReq(t, http.MethodPost, url, sid, "application/json", b)
	out := map[string]any{}
	_ = json.Unmarshal(body, &out)
	return status, out
}

// openSession creates a session in the tenant and returns its ID.
func openSession(t *testing.T, base, tenant string) string {
	t.Helper()
	status, out := postJSON(t, base+"/v1/sessions", "", map[string]string{"tenant": tenant})
	if status != http.StatusCreated {
		t.Fatalf("session create: status %d (%v)", status, out)
	}
	sid, _ := out["session"].(string)
	if sid == "" {
		t.Fatalf("session create: no session in %v", out)
	}
	return sid
}

// setupTenant opens a session, registers the test program and loads SRC.
func setupTenant(t *testing.T, base, tenant string, scale float64, n int) string {
	t.Helper()
	sid := openSession(t, base, tenant)
	if status, out := postJSON(t, base+"/v1/programs", sid,
		map[string]string{"name": "prog", "source": testProgram}); status != http.StatusCreated {
		t.Fatalf("register: status %d (%v)", status, out)
	}
	if status, body := doReq(t, http.MethodPut, base+"/v1/cubes/SRC", sid,
		"text/csv", testCSV(t, scale, n)); status != http.StatusOK {
		t.Fatalf("put SRC: status %d (%s)", status, body)
	}
	return sid
}

func TestSessionLifecycle(t *testing.T) {
	srv, base := newTestServer(t, Config{})

	sid := openSession(t, base, "alpha")
	if srv.tenants.count() != 1 || srv.sessions.count() != 1 {
		t.Fatalf("tenants=%d sessions=%d, want 1/1", srv.tenants.count(), srv.sessions.count())
	}
	if status, _ := doReq(t, http.MethodGet, base+"/v1/sessions/"+sid, "", "", nil); status != http.StatusOK {
		t.Fatalf("session get: status %d", status)
	}
	// A bogus session capability is rejected.
	if status, _ := doReq(t, http.MethodGet, base+"/v1/programs", "s-bogus", "", nil); status != http.StatusUnauthorized {
		t.Fatalf("bogus session: status %d, want 401", status)
	}
	if status, _ := doReq(t, http.MethodGet, base+"/v1/programs", "", "", nil); status != http.StatusUnauthorized {
		t.Fatalf("missing session header: status %d, want 401", status)
	}
	// Close: the session disappears and with it the last tenant ref.
	if status, _ := doReq(t, http.MethodDelete, base+"/v1/sessions/"+sid, "", "", nil); status != http.StatusOK {
		t.Fatalf("session close: status %d", status)
	}
	if status, _ := doReq(t, http.MethodGet, base+"/v1/sessions/"+sid, "", "", nil); status != http.StatusNotFound {
		t.Fatalf("closed session get: status %d, want 404", status)
	}
	if status, _ := doReq(t, http.MethodGet, base+"/v1/programs", sid, "", nil); status != http.StatusUnauthorized {
		t.Fatalf("closed session use: status %d, want 401", status)
	}
	if srv.tenants.count() != 0 || srv.sessions.count() != 0 {
		t.Fatalf("after close: tenants=%d sessions=%d, want 0/0", srv.tenants.count(), srv.sessions.count())
	}
}

func TestBadRequests(t *testing.T) {
	_, base := newTestServer(t, Config{})

	// Tenant names are constrained to path-safe tokens.
	if status, _ := postJSON(t, base+"/v1/sessions", "", map[string]string{"tenant": "../evil"}); status != http.StatusBadRequest {
		t.Fatalf("bad tenant name: status %d, want 400", status)
	}
	if status, _ := postJSON(t, base+"/v1/sessions", "", map[string]string{}); status != http.StatusBadRequest {
		t.Fatalf("missing tenant: status %d, want 400", status)
	}
	sid := openSession(t, base, "alpha")
	if status, _ := doReq(t, http.MethodGet, base+"/v1/cubes/NOPE", sid, "", nil); status != http.StatusNotFound {
		t.Fatalf("missing cube: status %d, want 404", status)
	}
	if status, _ := doReq(t, http.MethodPut, base+"/v1/cubes/NOPE", sid, "text/csv", []byte("x\n1\n")); status != http.StatusNotFound {
		t.Fatalf("put undeclared cube: status %d, want 404", status)
	}
	if status, _ := doReq(t, http.MethodGet, base+"/v1/runs/r-bogus", sid, "", nil); status != http.StatusNotFound {
		t.Fatalf("unknown run: status %d, want 404", status)
	}
}

func TestProgramCubeRunFlow(t *testing.T) {
	_, base := newTestServer(t, Config{})
	sid := setupTenant(t, base, "alpha", 1, 12)

	// Duplicate registration is a conflict, not a server error.
	if status, _ := postJSON(t, base+"/v1/programs", sid,
		map[string]string{"name": "prog", "source": testProgram}); status != http.StatusConflict {
		t.Fatalf("re-register: status %d, want 409", status)
	}

	// Sync run: 200 with a done RunInfo carrying the engine report.
	status, out := postJSON(t, base+"/v1/run", sid, map[string]any{})
	if status != http.StatusOK {
		t.Fatalf("run: status %d (%v)", status, out)
	}
	if out["state"] != string(RunDone) {
		t.Fatalf("run state = %v, want done", out["state"])
	}
	if out["report"] == nil {
		t.Fatalf("run response missing report")
	}

	// The derived cube came out right: OUT = 2*SRC.
	status, body := doReq(t, http.MethodGet, base+"/v1/cubes/OUT", sid, "", nil)
	if status != http.StatusOK {
		t.Fatalf("get OUT: status %d (%s)", status, body)
	}
	recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 13 { // header + 12 months
		t.Fatalf("OUT has %d CSV rows, want 13", len(recs))
	}
	if recs[1][1] != "2" {
		t.Fatalf("OUT first value = %q, want 2", recs[1][1])
	}

	// The process list remembers the finished run.
	status, out = getJSON(t, base+"/v1/runs", sid)
	if status != http.StatusOK {
		t.Fatalf("run list: status %d", status)
	}
	runs, _ := out["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("run list has %d entries, want 1", len(runs))
	}

	// Tenant metrics are exposed and scoped.
	status, body = doReq(t, http.MethodGet, base+"/v1/metrics", sid, "", nil)
	if status != http.StatusOK || !strings.Contains(string(body), "engine_runs_total") {
		t.Fatalf("tenant metrics: status %d, body %.80s", status, body)
	}
	// Server metrics live on the unauthenticated /metrics endpoint.
	status, body = doReq(t, http.MethodGet, base+"/metrics", "", "", nil)
	if status != http.StatusOK || !strings.Contains(string(body), MetricSessionsActive) {
		t.Fatalf("server metrics: status %d, body %.80s", status, body)
	}
}

// getJSON fetches url and decodes the JSON body.
func getJSON(t *testing.T, url, sid string) (int, map[string]any) {
	t.Helper()
	status, body := doReq(t, http.MethodGet, url, sid, "", nil)
	out := map[string]any{}
	_ = json.Unmarshal(body, &out)
	return status, out
}

func TestAsyncRun(t *testing.T) {
	_, base := newTestServer(t, Config{})
	sid := setupTenant(t, base, "alpha", 1, 12)

	status, out := postJSON(t, base+"/v1/run", sid, map[string]any{"async": true})
	if status != http.StatusAccepted {
		t.Fatalf("async run: status %d (%v)", status, out)
	}
	runID, _ := out["run"].(string)
	if runID == "" {
		t.Fatalf("async run: no run ID in %v", out)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		status, out = getJSON(t, base+"/v1/runs/"+runID, sid)
		if status != http.StatusOK {
			t.Fatalf("run poll: status %d", status)
		}
		if st, _ := out["state"].(string); st != string(RunRunning) {
			if st != string(RunDone) {
				t.Fatalf("async run ended %q (%v)", st, out["error"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async run did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if out["report"] == nil {
		t.Fatalf("finished async run has no report")
	}
}

func TestStaticTokenAuth(t *testing.T) {
	_, base := newTestServer(t, Config{
		Auth: StaticTokens{"tok1": {"alpha"}, "admin": {"*"}},
	})
	create := func(token, tenant string) int {
		b, _ := json.Marshal(map[string]string{"tenant": tenant})
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/sessions", bytes.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := create("", "alpha"); got != http.StatusUnauthorized {
		t.Errorf("no token: status %d, want 401", got)
	}
	if got := create("tok1", "alpha"); got != http.StatusCreated {
		t.Errorf("tok1→alpha: status %d, want 201", got)
	}
	if got := create("tok1", "beta"); got != http.StatusUnauthorized {
		t.Errorf("tok1→beta: status %d, want 401", got)
	}
	if got := create("admin", "beta"); got != http.StatusCreated {
		t.Errorf("admin wildcard: status %d, want 201", got)
	}
}

// TestOverloadSheds429 floods a capacity-1 tenant with concurrent sync
// runs: the governor admits one, queues four, and rejects the rest with
// typed overload errors the server maps to 429 + Retry-After. No request
// sees a 500.
func TestOverloadSheds429(t *testing.T) {
	// Gate fragment execution so the single slot stays provably occupied
	// while the flood arrives: without the gate the test races run
	// duration against request arrival, and a fast executor can drain
	// capacity-1 quickly enough to absorb the whole flood.
	gate := make(chan struct{})
	testEngineOptions = []engine.Option{engine.WithDispatchMiddleware(
		func(next dispatch.Runner) dispatch.Runner {
			return func(ctx context.Context, fr dispatch.Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return next(ctx, fr, snap)
			}
		})}
	t.Cleanup(func() { testEngineOptions = nil })

	srv, base := newTestServer(t, Config{MaxConcurrent: 1})
	sid := setupTenant(t, base, "alpha", 1, 2000)

	const flood = 24
	var ok, shed, other atomic.Int64
	var sawRetryAfter atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, _ := json.Marshal(map[string]any{})
			req, _ := http.NewRequest(http.MethodPost, base+"/v1/run", bytes.NewReader(b))
			req.Header.Set(SessionHeader, sid)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				other.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
				if resp.Header.Get("Retry-After") != "" {
					sawRetryAfter.Store(true)
				}
			default:
				other.Add(1)
			}
		}()
	}
	// Open the gate once shedding has been observed (or give up and let
	// the assertions report): the blocked run and any queued one then
	// complete normally.
	for i := 0; shed.Load() == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("saw %d non-200/429 responses under overload", other.Load())
	}
	if ok.Load() == 0 {
		t.Fatalf("no run succeeded under overload")
	}
	if shed.Load() == 0 {
		t.Fatalf("no run was shed: capacity-1 tenant absorbed %d concurrent runs", flood)
	}
	if !sawRetryAfter.Load() {
		t.Errorf("429 responses missing Retry-After")
	}
	if got := srv.cfg.Metrics.Counter(MetricHTTPOverload).Value(); got != shed.Load() {
		t.Errorf("overload counter = %d, shed = %d", got, shed.Load())
	}
}

// TestShutdownRejectsNewSessions: after Shutdown, session creation gets
// 503 and the reaper goroutine is gone.
func TestShutdownRejectsNewSessions(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{})
	openHandler := srv.Handler()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	b, _ := json.Marshal(map[string]string{"tenant": "alpha"})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(b))
	openHandler.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("session create after shutdown: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Errorf("503 missing Retry-After")
	}
	waitNoLeak(t, before)
}

// waitNoLeak polls until the goroutine count returns to the baseline.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestRunCancel: an async run can be killed through the process list;
// it reaches a terminal state either way the race falls.
func TestRunCancel(t *testing.T) {
	_, base := newTestServer(t, Config{})
	sid := setupTenant(t, base, "alpha", 1, 5000)

	status, out := postJSON(t, base+"/v1/run", sid, map[string]any{"async": true})
	if status != http.StatusAccepted {
		t.Fatalf("async run: status %d", status)
	}
	runID, _ := out["run"].(string)
	if status, _ := doReq(t, http.MethodDelete, base+"/v1/runs/"+runID, sid, "", nil); status != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, out = getJSON(t, base+"/v1/runs/"+runID, sid)
		st, _ := out["state"].(string)
		if st != string(RunRunning) {
			if st != string(RunCanceled) && st != string(RunDone) && st != string(RunFailed) {
				t.Fatalf("canceled run in state %q", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run stuck after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countingAuth admits everything and counts how often it was asked.
type countingAuth struct{ calls atomic.Int64 }

func (a *countingAuth) Authenticate(token, tenant string) error {
	a.calls.Add(1)
	return nil
}

// TestOversizedCSVBodyRejected: a tenant's memory budget is also the longest
// CSV body a cube PUT reads. One byte more — of well-formed rows, so nothing
// but its size is wrong with it — is refused with 413 and the typed error
// body, and the cube is left as it was; a body within the budget is stored.
func TestOversizedCSVBodyRejected(t *testing.T) {
	big := testCSV(t, 2, 3000)
	_, base := newTestServer(t, Config{MemBudget: int64(len(big)) - 1})
	sid := setupTenant(t, base, "alpha", 1, 6)
	_, before := doReq(t, http.MethodGet, base+"/v1/cubes/SRC", sid, "", nil)

	status, body := doReq(t, http.MethodPut, base+"/v1/cubes/SRC", sid, "text/csv", big)
	var e apiError
	if err := json.Unmarshal(body, &e); status != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
		t.Fatalf("put of %d bytes under a budget one short: status %d, body %q; want 413 with a JSON error", len(big), status, body)
	}
	if _, after := doReq(t, http.MethodGet, base+"/v1/cubes/SRC", sid, "", nil); !bytes.Equal(after, before) {
		t.Fatalf("the refused put changed SRC:\n%s", after)
	}
	within := testCSV(t, 2, 2999)
	if status, body := doReq(t, http.MethodPut, base+"/v1/cubes/SRC", sid, "text/csv", within); status != http.StatusOK {
		t.Fatalf("put within the budget: status %d (%s)", status, body)
	}
	if _, after := doReq(t, http.MethodGet, base+"/v1/cubes/SRC", sid, "", nil); !bytes.Equal(after, within) {
		t.Fatal("SRC is not the body put within the budget")
	}
}

// TestOversizedJSONBodyRejected: each JSON endpoint refuses a 2 MiB body
// — well-formed, so nothing but its size is wrong with it — with 413 and
// the typed error body, before authenticating and without creating the
// session, program or run it asks for.
func TestOversizedJSONBodyRejected(t *testing.T) {
	before := runtime.NumGoroutine()
	auth := &countingAuth{}
	srv := New(Config{Auth: auth})
	h := srv.Handler()
	serve := func(method, path, sid string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if sid != "" {
			req.Header.Set(SessionHeader, sid)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	padded := func(fields map[string]string) []byte {
		fields["pad"] = strings.Repeat("x", 2<<20)
		b, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rejected := func(what string, rec *httptest.ResponseRecorder) {
		t.Helper()
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
			t.Fatalf("%s: status %d, body %q; want 413 with a JSON error", what, rec.Code, rec.Body.String())
		}
	}

	rejected("session create", serve(http.MethodPost, "/v1/sessions", "", padded(map[string]string{"tenant": "big"})))
	if auth.calls.Load() != 0 || srv.sessions.count() != 0 || srv.tenants.count() != 0 {
		t.Fatalf("oversized session create reached auth %d time(s), left %d session(s), %d tenant(s)",
			auth.calls.Load(), srv.sessions.count(), srv.tenants.count())
	}

	var sess sessionInfo
	rec := serve(http.MethodPost, "/v1/sessions", "", []byte(`{"tenant":"alpha"}`))
	if err := json.Unmarshal(rec.Body.Bytes(), &sess); rec.Code != http.StatusCreated || err != nil {
		t.Fatalf("session create: status %d (%s)", rec.Code, rec.Body.String())
	}
	sid := sess.Session

	rejected("program register", serve(http.MethodPost, "/v1/programs", sid,
		padded(map[string]string{"name": "prog", "source": testProgram})))
	if rec := serve(http.MethodGet, "/v1/programs", sid, nil); !strings.Contains(rec.Body.String(), `"programs": []`) {
		t.Fatalf("oversized register left a program: %s", rec.Body.String())
	}

	b, _ := json.Marshal(map[string]string{"name": "prog", "source": testProgram})
	if rec := serve(http.MethodPost, "/v1/programs", sid, b); rec.Code != http.StatusCreated {
		t.Fatalf("register: status %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := serve(http.MethodPut, "/v1/cubes/SRC", sid, testCSV(t, 1, 6)); rec.Code != http.StatusOK {
		t.Fatalf("put SRC: status %d (%s)", rec.Code, rec.Body.String())
	}
	rejected("run", serve(http.MethodPost, "/v1/run", sid, padded(map[string]string{})))
	if rec := serve(http.MethodGet, "/v1/runs", sid, nil); !strings.Contains(rec.Body.String(), `"runs": []`) {
		t.Fatalf("oversized run request left a run: %s", rec.Body.String())
	}
	if rec := serve(http.MethodGet, "/v1/cubes/OUT", sid, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("oversized run request computed OUT: status %d", rec.Code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitNoLeak(t, before)
}
