package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestTenantCloseReopenRace drives the reaper-vs-reconnect race: the
// last reference to a durable tenant is released (starting a drain that
// flushes the WAL and closes the store) while the same tenant name is
// concurrently re-acquired. acquire must wait for the drain — reopening
// the directory under the still-writing store loses acked commits.
func TestTenantCloseReopenRace(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir}
	cfg.fill()
	ts := newTenantSet(&cfg)

	base := time.Now().UTC().Truncate(time.Second)
	const rounds = 8
	for i := 0; i < rounds; i++ {
		tnt, err := ts.acquire("dur")
		if err != nil {
			t.Fatalf("round %d: acquire: %v", i, err)
		}
		if err := tnt.eng.RegisterProgram("prog", testProgram); err != nil {
			t.Fatalf("round %d: register: %v", i, err)
		}
		asOf := base.Add(time.Duration(i) * time.Minute)
		if err := tnt.eng.LoadCSV("SRC", bytes.NewReader(testCSV(t, float64(i+1), 3)), asOf); err != nil {
			t.Fatalf("round %d: load: %v", i, err)
		}

		// Drop the last reference (drain begins) while re-acquiring.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ts.release(tnt, 10*time.Second); err != nil {
				t.Errorf("round %d: release: %v", i, err)
			}
		}()
		tnt2, err := ts.acquire("dur")
		if err != nil {
			t.Fatalf("round %d: re-acquire: %v", i, err)
		}
		wg.Wait()

		// Whichever way the race fell, every commit acked so far must be
		// visible in the (possibly reopened) store.
		for j := 0; j <= i; j++ {
			at := base.Add(time.Duration(j) * time.Minute)
			if _, ok := tnt2.eng.CubeAsOf("SRC", at); !ok {
				t.Fatalf("round %d: SRC version %d lost across close/reopen", i, j)
			}
		}
		if err := ts.release(tnt2, 10*time.Second); err != nil {
			t.Fatalf("round %d: final release: %v", i, err)
		}
	}
	if n := ts.count(); n != 0 {
		t.Fatalf("%d tenants live after all releases", n)
	}
}

// TestSessionInflightPinning: a session with work in flight is never
// idle, and the idle clock restarts when the work completes.
func TestSessionInflightPinning(t *testing.T) {
	cfg := Config{}
	cfg.fill()
	ss := newSessionSet(&cfg)
	start := time.Now()
	sess := &session{id: "s-test", created: start, lastUsed: start}
	ss.add(sess)

	if !sess.beginWork(start) {
		t.Fatal("beginWork failed on a fresh session")
	}
	// Far past the timeout, the pinned session must not be reapable.
	later := start.Add(time.Hour)
	if got := ss.expired(later, time.Minute); len(got) != 0 {
		t.Fatalf("session with in-flight work reported expired")
	}
	sess.endWork(later)
	// The idle clock counts from completion, not from request start.
	if got := ss.expired(later.Add(30*time.Second), time.Minute); len(got) != 0 {
		t.Fatalf("session expired 30s after work ended with a 1m timeout")
	}
	if got := ss.expired(later.Add(2*time.Minute), time.Minute); len(got) != 1 {
		t.Fatalf("idle session not reported expired")
	}
	if !sess.markClosed() {
		t.Fatal("markClosed failed")
	}
	if sess.beginWork(time.Now()) {
		t.Fatal("beginWork succeeded on a closed session")
	}
}

// TestInflightRequestSurvivesIdleTimeout: a request that takes longer
// than the idle timeout (here: a slowly streamed CSV upload into a
// durable tenant) must not have its session reaped and its tenant store
// closed underneath it.
func TestInflightRequestSurvivesIdleTimeout(t *testing.T) {
	dir := t.TempDir()
	_, base := newTestServer(t, Config{
		DataDir:            dir,
		SessionIdleTimeout: 100 * time.Millisecond,
	})
	sid := openSession(t, base, "slow")
	if status, out := postJSON(t, base+"/v1/programs", sid,
		map[string]string{"name": "prog", "source": testProgram}); status != http.StatusCreated {
		t.Fatalf("register: status %d (%v)", status, out)
	}

	body := testCSV(t, 1, 12)
	pr, pw := io.Pipe()
	go func() {
		_, _ = pw.Write(body[:len(body)/2])
		time.Sleep(500 * time.Millisecond) // several reap intervals past the timeout
		_, _ = pw.Write(body[len(body)/2:])
		pw.Close()
	}()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/cubes/SRC", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SessionHeader, sid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow PUT: status %d (%s) — session reaped mid-request?", resp.StatusCode, b)
	}
	// The session survived its long request and the data landed.
	if status, body := doReq(t, http.MethodGet, base+"/v1/cubes/SRC", sid, "", nil); status != http.StatusOK {
		t.Fatalf("after slow PUT: get SRC status %d (%s)", status, body)
	}
}

// TestAcquireRefusedAfterShutdown: the tenant set itself refuses opens
// once shutdown began, so even a handler served by an outer server (one
// Server.Shutdown cannot quiesce) can never open a store nobody will
// close.
func TestAcquireRefusedAfterShutdown(t *testing.T) {
	srv := New(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.tenants.acquire("alpha"); !errors.Is(err, errServerClosed) {
		t.Fatalf("acquire after shutdown: err = %v, want errServerClosed", err)
	}
}

// TestStaleVersionConflict: an optimistic-concurrency loss surfaces as
// 409 through the durable store wrapper — classified by errors.Is on
// store.ErrStaleVersion, not by matching message text.
func TestStaleVersionConflict(t *testing.T) {
	dir := t.TempDir()
	_, base := newTestServer(t, Config{DataDir: dir})
	sid := setupTenant(t, base, "alpha", 1, 3)

	past := time.Now().Add(-time.Hour).UTC().Format(time.RFC3339)
	status, body := doReq(t, http.MethodPut, base+"/v1/cubes/SRC?as_of="+past, sid,
		"text/csv", testCSV(t, 2, 3))
	if status != http.StatusConflict {
		t.Fatalf("stale put: status %d (%s), want 409", status, body)
	}
}

// TestErrorStatusCountedOnce: an error status is counted once in
// server_http_errors_total, whether the engine's error was mapped onto it
// (a run on a session with no program: 500) or the handler chose it (a
// stale-version PUT: 409).
func TestErrorStatusCountedOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		want int
		do   func(t *testing.T, base string) int
	}{
		{"run with no program", http.StatusInternalServerError, func(t *testing.T, base string) int {
			status, _ := postJSON(t, base+"/v1/run", openSession(t, base, "alpha"), map[string]any{})
			return status
		}},
		{"stale-version put", http.StatusConflict, func(t *testing.T, base string) int {
			sid := setupTenant(t, base, "alpha", 1, 3)
			past := time.Now().Add(-time.Hour).UTC().Format(time.RFC3339)
			status, _ := doReq(t, http.MethodPut, base+"/v1/cubes/SRC?as_of="+past, sid, "text/csv", testCSV(t, 2, 3))
			return status
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, base := newTestServer(t, Config{DataDir: t.TempDir()})
			errs := srv.cfg.Metrics.Counter(MetricHTTPErrors)
			if got := tc.do(t, base); got != tc.want || errs.Value() != 1 {
				t.Fatalf("status %d (want %d), %s = %d (want 1)", got, tc.want, MetricHTTPErrors, errs.Value())
			}
		})
	}
}
