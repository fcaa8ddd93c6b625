package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"exlengine/internal/engine"
	"exlengine/internal/exlerr"
)

// RunState is the lifecycle of one dispatched run.
type RunState string

// Run lifecycle states.
const (
	// RunRunning: admitted or waiting for admission inside Engine.Run.
	RunRunning RunState = "running"
	// RunDone: completed; the report is available.
	RunDone RunState = "done"
	// RunFailed: the run returned a non-overload error.
	RunFailed RunState = "failed"
	// RunShed: the governor rejected the run with a typed overload error.
	RunShed RunState = "shed"
	// RunCanceled: the client (or a session close) canceled the run.
	RunCanceled RunState = "canceled"
)

// RunInfo is the wire view of one run — the server's ProcessList entry.
type RunInfo struct {
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant"`
	Session string    `json:"session"`
	State   RunState  `json:"state"`
	Async   bool      `json:"async"`
	Started time.Time `json:"started"`
	// ElapsedMS is wall time so far (running) or total (finished).
	ElapsedMS int64          `json:"elapsed_ms"`
	Error     string         `json:"error,omitempty"`
	Report    *engine.Report `json:"report,omitempty"`
}

// runEntry is the mutable server-side record behind a RunInfo.
type runEntry struct {
	id      string
	tenant  string
	session string
	async   bool
	started time.Time
	cancel  context.CancelFunc
	done    chan struct{}

	mu       sync.Mutex
	state    RunState
	report   *engine.Report
	err      error
	finished time.Time
}

// info renders the entry at instant now.
func (e *runEntry) info(now time.Time) RunInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	ri := RunInfo{
		ID:      e.id,
		Tenant:  e.tenant,
		Session: e.session,
		State:   e.state,
		Async:   e.async,
		Started: e.started,
		Report:  e.report,
	}
	end := e.finished
	if e.state == RunRunning {
		end = now
	}
	ri.ElapsedMS = end.Sub(e.started).Milliseconds()
	if e.err != nil {
		ri.Error = e.err.Error()
	}
	return ri
}

// processList is the server's view of every in-flight run plus a bounded
// tail of finished ones, modeled on go-mysql-server's ProcessList: list
// what is running, inspect status by ID, kill by ID.
type processList struct {
	mu           sync.Mutex
	m            map[string]*runEntry
	finishedFIFO []string // finished entry IDs, oldest first, for eviction
}

// maxFinishedRuns bounds the completed tail of the run list kept for
// GET /v1/runs/{id}.
const maxFinishedRuns = 512

func newProcessList() *processList {
	return &processList{m: make(map[string]*runEntry)}
}

// start registers a new running entry.
func (pl *processList) start(tenant, session string, async bool, started time.Time, cancel context.CancelFunc) *runEntry {
	e := &runEntry{
		id:      newID("r-"),
		tenant:  tenant,
		session: session,
		async:   async,
		started: started,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   RunRunning,
	}
	pl.mu.Lock()
	pl.m[e.id] = e
	pl.mu.Unlock()
	return e
}

// finish records the run's outcome, classifies it (done / failed / shed /
// canceled), and schedules the entry for eviction once the finished tail
// outgrows its bound.
func (pl *processList) finish(e *runEntry, rep *engine.Report, err error, now time.Time) {
	e.mu.Lock()
	e.report = rep
	e.err = err
	e.finished = now
	switch {
	case err == nil:
		e.state = RunDone
	case exlerr.IsOverload(err):
		e.state = RunShed
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.state = RunCanceled
	default:
		e.state = RunFailed
	}
	e.mu.Unlock()
	close(e.done)

	pl.mu.Lock()
	pl.finishedFIFO = append(pl.finishedFIFO, e.id)
	for len(pl.finishedFIFO) > maxFinishedRuns {
		delete(pl.m, pl.finishedFIFO[0])
		pl.finishedFIFO = pl.finishedFIFO[1:]
	}
	pl.mu.Unlock()
}

// get returns the entry by ID, tenant-scoped: a session only sees its
// own tenant's runs.
func (pl *processList) get(id, tenant string) (*runEntry, bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	e, ok := pl.m[id]
	if !ok || e.tenant != tenant {
		return nil, false
	}
	return e, true
}

// list renders every visible entry of the tenant, running first, newest
// first within each group.
func (pl *processList) list(tenant string, now time.Time) []RunInfo {
	pl.mu.Lock()
	entries := make([]*runEntry, 0, len(pl.m))
	for _, e := range pl.m {
		if e.tenant == tenant {
			entries = append(entries, e)
		}
	}
	pl.mu.Unlock()

	infos := make([]RunInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, e.info(now))
	}
	// Running before finished, then newest starts first.
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && less(infos[j], infos[j-1]); j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
	return infos
}

func less(a, b RunInfo) bool {
	ar, br := a.State == RunRunning, b.State == RunRunning
	if ar != br {
		return ar
	}
	return a.Started.After(b.Started)
}

// cancelSession cancels every in-flight run owned by the session — the
// resource-release half of closing or reaping a session.
func (pl *processList) cancelSession(session string) {
	pl.mu.Lock()
	var cancels []context.CancelFunc
	for _, e := range pl.m {
		e.mu.Lock()
		if e.session == session && e.state == RunRunning {
			cancels = append(cancels, e.cancel)
		}
		e.mu.Unlock()
	}
	pl.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}
