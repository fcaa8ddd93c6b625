package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"exlengine/internal/engine"
	"exlengine/internal/obs"
	"exlengine/internal/store/durable"
)

// tenantNameRE bounds tenant names to filesystem- and URL-safe tokens:
// the name becomes a directory under the server's data dir.
var tenantNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_-]{0,63}$`)

// tenant is one fully isolated namespace: its own engine (with its own
// governor), its own store (durable under <data-dir>/<name> when the
// server is persistent, in-memory otherwise), its own compiled mappings
// and its own metrics registry. Nothing here is shared with any other
// tenant — the process-global state the library grew up with (default
// metrics registry) is deliberately not used.
type tenant struct {
	name    string
	eng     *engine.Engine
	metrics *obs.Registry
	clock   runClock
	refs    int // sessions holding this tenant open
}

// runClock stamps unstamped runs with a per-tenant version timestamp.
// The store accepts equal timestamps (last write wins) but rejects
// regressions, and concurrent runs commit in arbitrary order — so every
// run that overlaps an in-flight run shares its stamp, and the stamp
// only advances to the wall clock when the tenant is briefly quiet.
// Overlapping full runs over the same inputs produce identical results,
// so last-write-wins at a shared instant is exactly right.
type runClock struct {
	mu       sync.Mutex
	inflight int
	stamp    time.Time
}

// begin takes a stamp for one run; pair with end.
func (rc *runClock) begin(now time.Time) time.Time {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.inflight == 0 && now.After(rc.stamp) {
		rc.stamp = now
	}
	rc.inflight++
	return rc.stamp
}

// end releases the run's hold on the stamp.
func (rc *runClock) end() {
	rc.mu.Lock()
	rc.inflight--
	rc.mu.Unlock()
}

// errServerClosed rejects tenant opens once shutdown has begun. The
// handler maps it to 503 + Retry-After.
var errServerClosed = errors.New("server shutting down")

// tenantSet opens tenants on first use and closes them when the last
// session referencing them goes away.
type tenantSet struct {
	cfg *Config

	mu   sync.Mutex
	live map[string]*tenant
	// closing tracks tenants whose engines are still draining after the
	// last reference went away: the channel closes when the drain (WAL
	// flush, snapshot write, store close) completes. A durable tenant's
	// directory must never be reopened while its old store is still
	// writing, so acquire blocks on this channel before reopening.
	closing map[string]chan struct{}
	// closed is set by shutdownAll: no tenant may open after shutdown
	// begins, however the handler is being served.
	closed bool
}

func newTenantSet(cfg *Config) *tenantSet {
	return &tenantSet{
		cfg:     cfg,
		live:    make(map[string]*tenant),
		closing: make(map[string]chan struct{}),
	}
}

// acquire returns the live tenant with the name, opening it if needed,
// and takes a reference. Opening a durable tenant replays its WAL, so a
// tenant resurrected after an idle period comes back with every cube
// version it ever committed. When a prior instance of the tenant is
// still draining (the idle reaper expired its last session just as the
// client reconnects), acquire waits for that drain to finish before
// reopening — the two store instances must never touch the directory
// concurrently.
func (ts *tenantSet) acquire(name string) (*tenant, error) {
	if !tenantNameRE.MatchString(name) {
		return nil, fmt.Errorf("invalid tenant name %q", name)
	}
	for {
		ts.mu.Lock()
		if ts.closed {
			ts.mu.Unlock()
			return nil, errServerClosed
		}
		if t, ok := ts.live[name]; ok {
			t.refs++
			ts.mu.Unlock()
			return t, nil
		}
		if done, ok := ts.closing[name]; ok {
			ts.mu.Unlock()
			<-done
			continue
		}
		t, err := ts.open(name)
		if err != nil {
			ts.mu.Unlock()
			return nil, err
		}
		t.refs = 1
		ts.live[name] = t
		ts.cfg.Metrics.Gauge(MetricTenantsActive).Set(int64(len(ts.live)))
		ts.mu.Unlock()
		return t, nil
	}
}

// testEngineOptions is appended to every tenant engine when non-nil.
// Tests use it to perturb dispatch (e.g. gate fragment execution so
// overload paths trigger deterministically regardless of how fast the
// backends run); it is never set in production.
var testEngineOptions []engine.Option

// open builds the tenant's isolated engine stack; ts.mu held.
func (ts *tenantSet) open(name string) (*tenant, error) {
	reg := obs.NewRegistry()
	opts := []engine.Option{engine.WithMetrics(reg)}
	opts = append(opts, testEngineOptions...)
	if ts.cfg.MaxConcurrent > 0 {
		opts = append(opts, engine.MaxConcurrentRuns(ts.cfg.MaxConcurrent))
	}
	if ts.cfg.MemBudget > 0 {
		opts = append(opts, engine.MemoryBudget(ts.cfg.MemBudget))
	}
	if ts.cfg.DataDir != "" {
		st, err := durable.Open(filepath.Join(ts.cfg.DataDir, name), durable.WithMetrics(reg))
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
		opts = append(opts, engine.WithStore(st))
	}
	return &tenant{name: name, eng: engine.New(opts...), metrics: reg}, nil
}

// release drops one reference. When the last session lets go, the
// tenant's engine shuts down gracefully — admission stops, in-flight
// runs drain, and the durable store flushes and closes — bounded by
// closeTimeout. The tenant stays visible in the closing map for the
// whole drain, so a concurrent acquire of the same name waits instead
// of reopening the directory under the still-writing store.
func (ts *tenantSet) release(t *tenant, closeTimeout time.Duration) error {
	ts.mu.Lock()
	t.refs--
	if t.refs > 0 {
		ts.mu.Unlock()
		return nil
	}
	if ts.live[t.name] != t {
		// shutdownAll (or an already-signaled drain) owns this tenant's
		// engine now; shutting it down twice is at best redundant.
		ts.mu.Unlock()
		return nil
	}
	delete(ts.live, t.name)
	done := make(chan struct{})
	ts.closing[t.name] = done
	ts.cfg.Metrics.Gauge(MetricTenantsActive).Set(int64(len(ts.live)))
	ts.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	err := t.eng.Shutdown(ctx)
	cancel()

	ts.mu.Lock()
	delete(ts.closing, t.name)
	ts.mu.Unlock()
	close(done)
	return err
}

// count returns the number of live tenants.
func (ts *tenantSet) count() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.live)
}

// shutdownAll gracefully shuts down every live tenant, draining their
// engines and closing their stores. Sessions referencing them are
// already closed (or abandoned) by the time the server calls this. It
// first flips the set closed — from here on acquire refuses with
// errServerClosed, so no tenant can open after shutdown begins even
// when the handler is embedded behind an outer server that
// Server.Shutdown cannot quiesce — and it also waits out drains started
// by concurrent releases, so every store is flushed and closed when it
// returns.
func (ts *tenantSet) shutdownAll(ctx context.Context) error {
	ts.mu.Lock()
	ts.closed = true
	all := make([]*tenant, 0, len(ts.live))
	for _, t := range ts.live {
		all = append(all, t)
	}
	ts.live = make(map[string]*tenant)
	draining := make([]chan struct{}, 0, len(ts.closing))
	for _, done := range ts.closing {
		draining = append(draining, done)
	}
	ts.cfg.Metrics.Gauge(MetricTenantsActive).Set(0)
	ts.mu.Unlock()

	var first error
	for _, t := range all {
		if err := t.eng.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, done := range draining {
		select {
		case <-done:
		case <-ctx.Done():
			if first == nil {
				first = ctx.Err()
			}
			return first
		}
	}
	return first
}
