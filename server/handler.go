package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"exlengine/internal/determine"
	"exlengine/internal/engine"
	"exlengine/internal/exlerr"
	"exlengine/internal/governor"
	"exlengine/internal/obs"
	"exlengine/internal/store"
)

// SessionHeader carries the session capability on every request after
// session creation.
const SessionHeader = "X-EXL-Session"

// retryAfterSeconds is the hint sent with 429/503 overload rejections.
const retryAfterSeconds = "1"

// apiError is the uniform JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxJSONBody bounds every JSON request body. Cube uploads are CSV and
// are bounded by the tenant's memory budget instead (handleCubePut).
const maxJSONBody = 1 << 20

// decodeJSON reads the request's JSON body into v, refusing to read more
// than maxJSONBody of it. On failure it has written the reply — 413 for
// an oversized body, 400 for a malformed one — and reports false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(v)
	if err == nil {
		return true
	}
	if !writeTooLarge(w, err) {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// writeTooLarge answers 413 if err says that a request body passed the bound
// http.MaxBytesReader put on it, and reports whether it did.
func writeTooLarge(w http.ResponseWriter, err error) bool {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		return false
	}
	writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	return true
}

// writeEngineError maps an engine error onto HTTP: shutdown → 503,
// any other typed overload → 429 (both with Retry-After), cancellation
// → 499-style 400, an unknown changed cube → 400, everything else → 500.
// It counts the overloads; instrument counts every other error status.
func writeEngineError(w http.ResponseWriter, reg *obs.Registry, err error) {
	switch {
	case errors.Is(err, governor.ErrShuttingDown):
		reg.Counter(MetricHTTPOverload).Inc()
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case exlerr.IsOverload(err):
		reg.Counter(MetricHTTPOverload).Inc()
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case exlerr.IsCancellation(err):
		writeError(w, http.StatusBadRequest, "run canceled: %v", err)
	case errors.Is(err, determine.ErrUnknownCube):
		// The request names a cube that no program derives or reads.
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, store.ErrStaleVersion):
		// Optimistic-concurrency loss: a client-stamped write raced a
		// newer version. Retryable by the client with a fresher stamp.
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// statusWriter records the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with server-level request metrics.
func (s *Server) instrument(h http.Handler) http.Handler {
	reg := s.cfg.Metrics
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		reg.Counter(MetricHTTPRequests).Inc()
		reg.Histogram(MetricHTTPLatency).ObserveDuration(time.Since(start))
		if sw.status >= 400 && sw.status != http.StatusTooManyRequests &&
			sw.status != http.StatusServiceUnavailable {
			// Overload statuses are counted at the rejection site with
			// MetricHTTPOverload; everything else 4xx/5xx lands here.
			reg.Counter(MetricHTTPErrors).Inc()
		}
	})
}

// routes builds the v1 API mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleServerMetrics)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("POST /v1/programs", s.withSession(s.handleProgramRegister))
	mux.HandleFunc("GET /v1/programs", s.withSession(s.handleProgramList))
	mux.HandleFunc("GET /v1/cubes", s.withSession(s.handleCubeList))
	mux.HandleFunc("PUT /v1/cubes/{name}", s.withSession(s.handleCubePut))
	mux.HandleFunc("GET /v1/cubes/{name}", s.withSession(s.handleCubeGet))
	mux.HandleFunc("POST /v1/run", s.withSession(s.handleRun))
	mux.HandleFunc("GET /v1/runs", s.withSession(s.handleRunList))
	mux.HandleFunc("GET /v1/runs/{id}", s.withSession(s.handleRunGet))
	mux.HandleFunc("DELETE /v1/runs/{id}", s.withSession(s.handleRunCancel))
	mux.HandleFunc("GET /v1/metrics", s.withSession(s.handleTenantMetrics))

	outer := http.NewServeMux()
	outer.Handle("/", s.instrument(mux))
	return outer
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"tenants":  s.tenants.count(),
		"sessions": s.sessions.count(),
	})
}

func (s *Server) handleServerMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.cfg.Metrics.WriteText(w)
}

// --- sessions ---

type sessionCreateRequest struct {
	Tenant string `json:"tenant"`
}

type sessionInfo struct {
	Session string    `json:"session"`
	Tenant  string    `json:"tenant"`
	Created time.Time `json:"created"`
	Durable bool      `json:"durable"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionCreateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Tenant == "" {
		writeError(w, http.StatusBadRequest, "tenant is required")
		return
	}
	if err := s.cfg.Auth.Authenticate(bearerToken(r), req.Tenant); err != nil {
		writeError(w, http.StatusUnauthorized, "%v", err)
		return
	}
	s.mu.Lock()
	down := s.shutdown
	s.mu.Unlock()
	if down {
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	t, err := s.tenants.acquire(req.Tenant)
	if err != nil {
		// acquire re-checks shutdown under the tenant-set lock: the early
		// s.shutdown check above cannot exclude a Shutdown that lands
		// between it and the open (e.g. when the handler is embedded and
		// httpSrv.Shutdown never quiesces this request).
		if errors.Is(err, errServerClosed) {
			w.Header().Set("Retry-After", retryAfterSeconds)
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	now := time.Now()
	sess := &session{id: newID("s-"), tenant: t, created: now, lastUsed: now}
	s.sessions.add(sess)
	writeJSON(w, http.StatusCreated, sessionInfo{
		Session: sess.id,
		Tenant:  t.name,
		Created: sess.created,
		Durable: s.cfg.DataDir != "",
	})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo{
		Session: sess.id,
		Tenant:  sess.tenant.name,
		Created: sess.created,
		Durable: s.cfg.DataDir != "",
	})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	s.closeSession(sess)
	writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

// withSession resolves the X-EXL-Session header, pins the session for
// the duration of the request (a session with a request in flight is
// never idle, however long the request runs), and passes it through.
// Unknown or expired sessions get 401 — the client must create a new
// session (and with it, possibly resurrect its durable tenant).
func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(SessionHeader)
		if id == "" {
			writeError(w, http.StatusUnauthorized, "missing %s header", SessionHeader)
			return
		}
		sess, ok := s.sessions.get(id)
		if !ok || !sess.beginWork(time.Now()) {
			writeError(w, http.StatusUnauthorized, "unknown or expired session")
			return
		}
		defer func() { sess.endWork(time.Now()) }()
		h(w, r, sess)
	}
}

// --- programs ---

type programRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

func (s *Server) handleProgramRegister(w http.ResponseWriter, r *http.Request, sess *session) {
	var req programRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" || req.Source == "" {
		writeError(w, http.StatusBadRequest, "name and source are required")
		return
	}
	if err := sess.tenant.eng.RegisterProgram(req.Name, req.Source); err != nil {
		if errors.Is(err, engine.ErrProgramRegistered) {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"program": req.Name,
		"cubes":   sess.tenant.eng.CubeNames(),
	})
}

func (s *Server) handleProgramList(w http.ResponseWriter, r *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, map[string]any{"programs": sess.tenant.eng.Programs()})
}

// --- cubes ---

func (s *Server) handleCubeList(w http.ResponseWriter, r *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, map[string]any{"cubes": sess.tenant.eng.CubeNames()})
}

// handleCubePut loads a cube version from a CSV request body under the
// cube's declared schema. Optional ?as_of=RFC3339 backdates the version.
// Where tenants have a memory budget (Config.MemBudget), that is also the
// longest body accepted: 413 past it, and nothing stored.
func (s *Server) handleCubePut(w http.ResponseWriter, r *http.Request, sess *session) {
	name := r.PathValue("name")
	asOf, err := parseAsOf(r, time.Now())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body := r.Body
	if s.cfg.MemBudget > 0 {
		body = http.MaxBytesReader(w, body, s.cfg.MemBudget)
	}
	if err := sess.tenant.eng.LoadCSV(name, body, asOf); err != nil {
		if writeTooLarge(w, err) {
			return
		}
		status := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, engine.ErrCubeNotDeclared):
			status = http.StatusNotFound
		case errors.Is(err, store.ErrStaleVersion):
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"cube": name, "as_of": asOf})
}

// handleCubeGet streams the current (or ?as_of historical) version of a
// cube as CSV.
func (s *Server) handleCubeGet(w http.ResponseWriter, r *http.Request, sess *session) {
	name := r.PathValue("name")
	eng := sess.tenant.eng
	if q := r.URL.Query().Get("as_of"); q != "" {
		t, err := time.Parse(time.RFC3339, q)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad as_of: %v", err)
			return
		}
		c, ok := eng.CubeAsOf(name, t)
		if !ok {
			writeError(w, http.StatusNotFound, "cube %s has no version at %s", name, q)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		if err := store.WriteCSV(w, c); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if _, ok := eng.Cube(name); !ok {
		writeError(w, http.StatusNotFound, "cube %s has no data", name)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	if err := eng.WriteCSV(name, w); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// --- runs ---

type runRequest struct {
	// Changed limits recomputation to cubes downstream of these sources
	// (incremental run). Empty means recompute everything.
	Changed []string `json:"changed,omitempty"`
	// AsOf stamps derived versions (RFC3339); zero means now.
	AsOf string `json:"as_of,omitempty"`
	// Async returns 202 + run ID immediately; poll GET /v1/runs/{id}.
	Async bool `json:"async,omitempty"`
	// Incremental asks for delta-driven recomputation: only cubes whose
	// stored provenance is stale are recomputed, and where the
	// store can give the deltas of their inputs the chase applies them to
	// the previous versions, whatever target a fragment is assigned to
	// (see engine.WithIncremental for the exactness contract).
	Incremental bool `json:"incremental,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, sess *session) {
	var req runRequest
	if r.ContentLength != 0 && !decodeJSON(w, r, &req) {
		return
	}
	var opts []engine.RunOption
	if len(req.Changed) > 0 {
		opts = append(opts, engine.RunChanged(req.Changed...))
	}
	if req.Incremental || s.cfg.Incremental {
		opts = append(opts, engine.WithIncremental())
	}
	release := func() {}
	if req.AsOf != "" {
		t, err := time.Parse(time.RFC3339, req.AsOf)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad as_of: %v", err)
			return
		}
		opts = append(opts, engine.RunAt(t))
	} else {
		// Unstamped runs take the tenant's run clock: overlapping runs
		// share one stamp so out-of-order commits never regress the
		// version history.
		clock := &sess.tenant.clock
		opts = append(opts, engine.RunAt(clock.begin(time.Now())))
		release = clock.end
	}

	eng := sess.tenant.eng
	if req.Async {
		// Pin the session for the run's lifetime: an async run that
		// outlives its submitting request must not let the idle reaper
		// tear the session (and with it the tenant engine) down while the
		// run executes. The pin also restarts the idle clock when the run
		// finishes, giving the client time to poll the result.
		if !sess.beginWork(time.Now()) {
			writeError(w, http.StatusUnauthorized, "unknown or expired session")
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		entry := s.runs.start(sess.tenant.name, sess.id, true, time.Now(), cancel)
		go func() {
			rep, err := eng.Run(ctx, opts...)
			release()
			s.runs.finish(entry, rep, err, time.Now())
			cancel()
			sess.endWork(time.Now())
		}()
		writeJSON(w, http.StatusAccepted, map[string]string{"run": entry.id})
		return
	}

	ctx, cancel := context.WithCancel(r.Context())
	entry := s.runs.start(sess.tenant.name, sess.id, false, time.Now(), cancel)
	rep, err := eng.Run(ctx, opts...)
	release()
	s.runs.finish(entry, rep, err, time.Now())
	cancel()
	if err != nil {
		writeEngineError(w, s.cfg.Metrics, err)
		return
	}
	writeJSON(w, http.StatusOK, entry.info(time.Now()))
}

func (s *Server) handleRunList(w http.ResponseWriter, r *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, map[string]any{
		"runs": s.runs.list(sess.tenant.name, time.Now()),
	})
}

func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request, sess *session) {
	entry, ok := s.runs.get(r.PathValue("id"), sess.tenant.name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run")
		return
	}
	writeJSON(w, http.StatusOK, entry.info(time.Now()))
}

func (s *Server) handleRunCancel(w http.ResponseWriter, r *http.Request, sess *session) {
	entry, ok := s.runs.get(r.PathValue("id"), sess.tenant.name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run")
		return
	}
	entry.cancel()
	writeJSON(w, http.StatusAccepted, map[string]string{"run": entry.id, "state": "canceling"})
}

// --- metrics ---

// handleTenantMetrics renders the session's tenant registry — engine,
// governor and store metrics scoped to that tenant only.
func (s *Server) handleTenantMetrics(w http.ResponseWriter, r *http.Request, sess *session) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = sess.tenant.metrics.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = sess.tenant.metrics.WriteText(w)
}

// parseAsOf reads the optional ?as_of=RFC3339 query parameter.
func parseAsOf(r *http.Request, fallback time.Time) (time.Time, error) {
	q := r.URL.Query().Get("as_of")
	if q == "" {
		return fallback, nil
	}
	t, err := time.Parse(time.RFC3339, q)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad as_of: %w", err)
	}
	return t, nil
}
