// Package governor is EXLEngine's resource-governance and
// overload-protection layer: every run passes through it before touching
// the dispatcher or the store. It bounds two things the rest of the
// engine deliberately leaves unbounded —
//
//   - concurrency, through an admission semaphore with a FIFO wait queue
//     of 4×MaxConcurrent runs (a run that finds the queue full is
//     rejected immediately; a queued run whose context ends leaves the
//     queue with the context's error);
//   - memory, through a process-wide budget charged at cube
//     materialization and released on run completion, so a run too large
//     for the budget is rejected or degraded rather than OOM-ing the
//     process.
//
// It never changes which targets a run's fragments are tried on.
//
// Every rejection is a typed exlerr.Overload error: callers can
// distinguish "the engine shed this" from "this failed" mechanically.
// Shutdown stops admission and drains in-flight runs, the first half of
// the engine's graceful-shutdown path. The governor_* gauges and
// counters it sets are how its state is read.
package governor

import (
	"container/list"
	"context"
	"sync"
	"time"

	"exlengine/internal/exlerr"
	"exlengine/internal/obs"
)

// Sentinel shed errors. Each is wrapped in a typed exlerr.Overload error
// by Admit, so both errors.Is against the sentinel and
// exlerr.IsOverload work.
var (
	// ErrQueueFull is returned when the admission wait queue is at
	// capacity: the engine is past the load it is configured to absorb.
	ErrQueueFull = exlerr.Overloadf("governor: admission queue full")
	// ErrShuttingDown is returned once Shutdown has been called: the
	// engine no longer admits work.
	ErrShuttingDown = exlerr.Overloadf("governor: engine is shutting down")
	// ErrMemoryBudget is returned when a run's estimated materialization
	// does not fit the process-wide memory budget.
	ErrMemoryBudget = exlerr.Overloadf("governor: memory budget exceeded")
)

// Config parameterizes a Governor. The zero value governs nothing: every
// run is admitted immediately and no budget is enforced — but in-flight
// runs are still tracked, so Shutdown drains correctly even on an
// unconfigured engine.
type Config struct {
	// MaxConcurrent is how many runs execute at once; four times as many
	// more may wait for admission. Zero or negative: unlimited.
	MaxConcurrent int
	// MemoryBudget is the process-wide materialization budget in bytes.
	// Zero or negative: unlimited.
	MemoryBudget int64
}

// waiter is one queued admission request.
type waiter struct {
	ready chan struct{} // closed on grant or rejection
	err   error         // set before close when rejected
}

// Governor implements admission control and memory budgeting. All
// methods are safe for concurrent use.
type Governor struct {
	cfg     Config
	metrics *obs.Registry

	mu          sync.Mutex // guards everything below
	avail       int        // free admission slots (meaningful when limited)
	inflight    int        // admitted, unreleased runs (tracked even when unlimited)
	queue       *list.List // of *waiter, FIFO
	draining    bool
	drained     chan struct{} // closed when draining and inflight reaches 0
	drainClosed bool          // guards the close (decided under the lock)

	memUsed int64 // reserved bytes against MemoryBudget
	memPeak int64
}

// New builds a Governor from the config. Admission, queue-depth and
// memory instruments accumulate in metrics; nil records nothing.
func New(cfg Config, metrics *obs.Registry) *Governor {
	return &Governor{
		cfg:     cfg,
		metrics: metrics,
		avail:   cfg.MaxConcurrent,
		queue:   list.New(),
		drained: make(chan struct{}),
	}
}

// limited reports whether admission capacity is bounded.
func (g *Governor) limited() bool { return g.cfg.MaxConcurrent > 0 }

// Ticket is one admitted run's claim on the governor: an admission slot
// plus any memory reserved through it. Release returns both; it is
// idempotent and must be called exactly when the run completes (success
// or failure).
type Ticket struct {
	g        *Governor
	queued   time.Duration
	reserved int64
	released bool
}

// Admit blocks until the run is granted an admission slot, the context
// is done, or the governor sheds it. Shed paths — queue full, shutting
// down — return typed exlerr.Overload errors without waiting.
func (g *Governor) Admit(ctx context.Context) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		g.metrics.Counter(obs.Label(obs.MetricShed, "reason", "shutdown")).Inc()
		return nil, ErrShuttingDown
	}
	if !g.limited() || (g.avail > 0 && g.queue.Len() == 0) {
		g.avail--
		g.inflight++
		g.metrics.Gauge(obs.MetricInFlight).Set(int64(g.inflight))
		g.mu.Unlock()
		g.metrics.Counter(obs.MetricAdmitted).Inc()
		return &Ticket{g: g}, nil
	}
	if g.queue.Len() >= 4*g.cfg.MaxConcurrent {
		g.mu.Unlock()
		g.metrics.Counter(obs.Label(obs.MetricShed, "reason", "queue_full")).Inc()
		return nil, ErrQueueFull
	}
	w := &waiter{ready: make(chan struct{})}
	elem := g.queue.PushBack(w)
	g.metrics.Gauge(obs.MetricQueueDepth).Set(int64(g.queue.Len()))
	g.mu.Unlock()

	start := time.Now()
	select {
	case <-w.ready:
		if w.err != nil {
			// Rejected while queued (shutdown).
			g.metrics.Counter(obs.Label(obs.MetricShed, "reason", "shutdown")).Inc()
			return nil, w.err
		}
		queued := time.Since(start)
		g.metrics.Counter(obs.MetricAdmitted).Inc()
		g.metrics.Histogram(obs.MetricQueueWait).ObserveDuration(queued)
		return &Ticket{g: g, queued: queued}, nil
	case <-ctx.Done():
		g.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with cancellation: the slot is ours,
			// give it back (or fail if the grant was a rejection).
			g.mu.Unlock()
			if w.err == nil {
				(&Ticket{g: g}).Release()
			}
		default:
			g.queue.Remove(elem)
			g.metrics.Gauge(obs.MetricQueueDepth).Set(int64(g.queue.Len()))
			g.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// Release returns the ticket's slot and memory reservation, handing the
// slot to the first queued waiter if there is one. Idempotent.
func (t *Ticket) Release() {
	if t.released {
		return
	}
	t.released = true
	g := t.g

	g.mu.Lock()
	if t.reserved > 0 {
		g.memUsed -= t.reserved
		g.metrics.Gauge(obs.MetricMemReserved).Set(g.memUsed)
	}
	g.inflight--
	g.avail++
	if g.limited() {
		for g.queue.Len() > 0 && g.avail > 0 {
			close(g.queue.Remove(g.queue.Front()).(*waiter).ready)
			g.avail--
			g.inflight++
		}
		g.metrics.Gauge(obs.MetricQueueDepth).Set(int64(g.queue.Len()))
	}
	g.metrics.Gauge(obs.MetricInFlight).Set(int64(g.inflight))
	doClose := g.draining && g.inflight == 0 && !g.drainClosed
	if doClose {
		g.drainClosed = true
	}
	g.mu.Unlock()
	if doClose {
		close(g.drained)
	}
}

// Queued returns how long the run waited for admission.
func (t *Ticket) Queued() time.Duration { return t.queued }

// Reserved returns the bytes currently reserved by this ticket.
func (t *Ticket) Reserved() int64 { return t.reserved }

// Reserve charges bytes against the process-wide memory budget, on top of
// whatever the ticket already holds. It returns ErrMemoryBudget (typed
// Overload) when the charge does not fit, leaving the existing reservation
// unchanged.
func (t *Ticket) Reserve(bytes int64) error {
	if bytes <= 0 {
		return nil
	}
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cfg.MemoryBudget > 0 && g.memUsed+bytes > g.cfg.MemoryBudget {
		return ErrMemoryBudget
	}
	t.reserved += bytes
	g.memUsed += bytes
	if g.memUsed > g.memPeak {
		g.memPeak = g.memUsed
		g.metrics.Gauge(obs.MetricMemPeak).Set(g.memPeak)
	}
	g.metrics.Gauge(obs.MetricMemReserved).Set(g.memUsed)
	return nil
}

// Shutdown stops admission — every queued waiter and every later Admit
// is rejected with ErrShuttingDown — and waits for in-flight runs to
// release their tickets. It returns nil once drained, or the context's
// error if the deadline expires first (in-flight runs keep running; the
// caller may retry Shutdown or abandon them). Idempotent and safe to
// call concurrently.
func (g *Governor) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	for g.queue.Len() > 0 {
		w := g.queue.Remove(g.queue.Front()).(*waiter)
		w.err = ErrShuttingDown
		close(w.ready)
	}
	g.metrics.Gauge(obs.MetricQueueDepth).Set(0)
	doClose := g.inflight == 0 && !g.drainClosed
	if doClose {
		g.drainClosed = true
	}
	g.mu.Unlock()
	if doClose {
		close(g.drained)
	}
	select {
	case <-g.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
