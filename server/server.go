package server

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"exlengine/internal/obs"
)

// Server-level metric names, recorded in the server's own registry
// (Config.Metrics) — distinct from the per-tenant engine registries.
const (
	// MetricTenantsActive gauges the number of open tenant namespaces.
	MetricTenantsActive = "server_tenants_active"
	// MetricSessionsActive gauges the number of live sessions.
	MetricSessionsActive = "server_sessions_active"
	// MetricSessionsOpened counts sessions ever created.
	MetricSessionsOpened = "server_sessions_opened_total"
	// MetricSessionsExpired counts sessions closed by the idle reaper.
	MetricSessionsExpired = "server_sessions_expired_total"
	// MetricHTTPRequests counts requests served (any status).
	MetricHTTPRequests = "server_http_requests_total"
	// MetricHTTPErrors counts 4xx/5xx responses other than overload.
	MetricHTTPErrors = "server_http_errors_total"
	// MetricHTTPOverload counts 429/503 overload rejections.
	MetricHTTPOverload = "server_http_overload_total"
	// MetricHTTPLatency is per-request wall time in milliseconds.
	MetricHTTPLatency = "server_http_latency_ms"
)

// Config shapes a Server. The zero value is usable: in-memory stores,
// allow-all auth, default limits.
type Config struct {
	// Addr is the listen address for ListenAndServe ("":8080"-style).
	// Defaults to ":8080".
	Addr string
	// DataDir, when set, makes every tenant durable: tenant state lives
	// under DataDir/<tenant> (WAL + snapshots) and survives both idle
	// eviction and process restarts. Empty means in-memory tenants.
	DataDir string
	// MaxConcurrent caps concurrently executing runs per tenant (each
	// tenant has its own governor). 0 means the engine default.
	MaxConcurrent int
	// MemBudget caps estimated materialization bytes per tenant. 0 means
	// unlimited.
	MemBudget int64
	// SessionIdleTimeout evicts sessions idle this long; the last session
	// of a tenant shuts the tenant's engine down (draining runs, closing
	// the durable store). Defaults to 5 minutes.
	SessionIdleTimeout time.Duration
	// Incremental makes every run delta-driven by default (as if each
	// request set "incremental": true): only stale cubes recompute, from
	// store deltas where possible (see engine.WithIncremental).
	Incremental bool
	// Auth authorizes session creation. Defaults to AllowAll.
	Auth Authenticator
	// Metrics receives server-level metrics (sessions, tenants, HTTP).
	// Defaults to a fresh private registry.
	Metrics *obs.Registry
}

// tenantCloseTimeout bounds the graceful drain when a tenant closes.
const tenantCloseTimeout = 30 * time.Second

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.SessionIdleTimeout <= 0 {
		c.SessionIdleTimeout = 5 * time.Minute
	}
	if c.Auth == nil {
		c.Auth = AllowAll{}
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// Server exposes EXLEngine over HTTP/JSON: sessions lease per-tenant
// engines, programs compile per tenant, cubes load and read back as CSV,
// and runs execute sync or async under the tenant's governor. See
// DESIGN.md "Network service & multi-tenancy".
type Server struct {
	cfg      Config
	tenants  *tenantSet
	sessions *sessionSet
	runs     *processList
	mux      *http.ServeMux
	httpSrv  *http.Server

	reapStop chan struct{}
	reapDone chan struct{}

	mu       sync.Mutex
	shutdown bool
}

// New builds a Server from cfg (zero value OK).
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		runs:     newProcessList(),
		reapStop: make(chan struct{}),
		reapDone: make(chan struct{}),
	}
	s.tenants = newTenantSet(&s.cfg)
	s.sessions = newSessionSet(&s.cfg)
	s.mux = s.routes()
	s.httpSrv = &http.Server{Addr: cfg.Addr, Handler: s.mux}
	go s.reapLoop()
	return s
}

// Handler returns the HTTP handler — for tests and embedding behind an
// outer mux or middleware stack.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server-level registry.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ListenAndServe listens on Config.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	err := s.httpSrv.ListenAndServe()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the server: stop the reaper, stop accepting HTTP,
// then shut every tenant engine down gracefully — admission closes,
// in-flight runs drain, durable stores flush and close. Every commit
// acked before Shutdown returns is on disk.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	s.mu.Unlock()

	close(s.reapStop)
	<-s.reapDone

	httpErr := s.httpSrv.Shutdown(ctx)

	// Sessions no longer matter — their tenants are about to close.
	for _, sess := range s.sessions.all() {
		if sess.markClosed() {
			s.sessions.remove(sess.id)
			s.runs.cancelSession(sess.id)
		}
	}
	tErr := s.tenants.shutdownAll(ctx)
	if httpErr != nil {
		return httpErr
	}
	return tErr
}

// reapLoop periodically evicts idle sessions. The interval tracks the
// timeout so short test timeouts reap promptly without a hot loop.
func (s *Server) reapLoop() {
	defer close(s.reapDone)
	interval := s.cfg.SessionIdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case now := <-t.C:
			for _, sess := range s.sessions.expired(now, s.cfg.SessionIdleTimeout) {
				if s.closeSession(sess) {
					s.cfg.Metrics.Counter(MetricSessionsExpired).Inc()
				}
			}
		}
	}
}

// closeSession tears one session down: mark closed, unlink, cancel its
// runs, release its tenant (possibly shutting the tenant down). Reports
// whether this call won the close race.
func (s *Server) closeSession(sess *session) bool {
	if !sess.markClosed() {
		return false
	}
	s.sessions.remove(sess.id)
	s.runs.cancelSession(sess.id)
	// Release may drain the tenant's engine; never under a lock.
	_ = s.tenants.release(sess.tenant, tenantCloseTimeout)
	return true
}
