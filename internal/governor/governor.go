// Package governor is EXLEngine's resource-governance and
// overload-protection layer: every run passes through it before touching
// the dispatcher or the store. It bounds three things the rest of the
// engine deliberately leaves unbounded —
//
//   - concurrency, through a weighted admission semaphore with a bounded
//     FIFO wait queue and deadline-aware shedding (a run whose context
//     deadline cannot be met by the estimated queue wait is rejected
//     immediately instead of queued to die);
//   - memory, through per-run and process-wide budgets charged at cube
//     materialization and released on run completion, so a run too large
//     for the budget is rejected or degraded rather than OOM-ing the
//     process;
//   - failure amplification, through per-backend circuit breakers (see
//     breaker.go) fed by the dispatch error taxonomy, so a flapping
//     backend is probed by one run instead of hammered by all of them.
//
// Every rejection is a typed exlerr.Overload error: callers can
// distinguish "the engine shed this" from "this failed" mechanically.
// Shutdown stops admission and drains in-flight runs, the first half of
// the engine's graceful-shutdown path.
package governor

import (
	"container/list"
	"context"
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
	// ErrDeadline is returned when the run's context deadline cannot be
	// met by the estimated queue wait; rejecting immediately beats
	// queueing work that is already dead.
	ErrDeadline = exlerr.Overloadf("governor: deadline unmeetable given queue depth")
	// ErrShuttingDown is returned once Shutdown has been called: the
	// engine no longer admits work.
	ErrShuttingDown = exlerr.Overloadf("governor: engine is shutting down")
	// ErrMemoryBudget is returned when a run's estimated materialization
	// does not fit the per-run or process-wide memory budget.
	ErrMemoryBudget = exlerr.Overloadf("governor: memory budget exceeded")
)

// Config parameterizes a Governor. The zero value governs nothing: every
// run is admitted immediately, no budget is enforced, and the breakers
// use their defaults — but in-flight runs are still tracked, so Shutdown
// drains correctly even on an unconfigured engine.
type Config struct {
	// MaxConcurrent is the admission capacity in weight units (a plain
	// run has weight 1). Zero or negative: unlimited.
	MaxConcurrent int
	// MaxQueue bounds how many runs may wait for admission. Zero means
	// 4×MaxConcurrent; negative means no queue (full capacity rejects
	// immediately). Ignored when MaxConcurrent is unlimited.
	MaxQueue int
	// MemoryBudget is the process-wide materialization budget in bytes.
	// Zero or negative: unlimited.
	MemoryBudget int64
	// AvgRunHint seeds the run-duration estimate the deadline-aware
	// queue check uses before any run has completed. Zero: no estimate,
	// so early runs are only shed on already-expired deadlines.
	AvgRunHint time.Duration
	// Breaker configures the per-backend circuit breakers.
	Breaker BreakerConfig
}

// waiter is one queued admission request.
type waiter struct {
	weight int64
	ready  chan struct{} // closed on grant or rejection
	err    error         // set before close when rejected
}

// Governor implements admission control and memory budgeting. All
// methods are safe for concurrent use. A nil Governor admits everything
// and budgets nothing (every method no-ops), so callers need not branch.
type Governor struct {
	cfg      Config
	breakers *BreakerSet

	mu          chan struct{} // 1-buffered semaphore used as the state lock
	avail       int64         // remaining admission capacity
	inflight    int64         // admitted, unreleased weight (tracked even when unlimited)
	queue       *list.List    // of *waiter, FIFO
	draining    bool
	drained     chan struct{} // closed when draining and inflight reaches 0
	drainClosed bool          // guards the close (decided under the lock)

	memUsed int64 // reserved bytes against MemoryBudget
	memPeak int64

	// ewmaRun is the exponentially-weighted average run duration,
	// updated at Release; the deadline-aware queue check multiplies it
	// by the queue position to estimate wait. ewmaSamples counts the
	// completed runs folded in: until it reaches ewmaMinSamples the
	// estimate is considered cold and (absent an AvgRunHint) does not
	// shed anybody — one unrepresentative first run must not start
	// rejecting deadlines on its own.
	ewmaRun     time.Duration
	ewmaSamples int

	metrics *obs.Registry
	now     func() time.Time // injectable clock (tests)
}

// New builds a Governor from the config.
func New(cfg Config) *Governor {
	g := &Governor{
		cfg:     cfg,
		mu:      make(chan struct{}, 1),
		queue:   list.New(),
		drained: make(chan struct{}),
		ewmaRun: cfg.AvgRunHint,
		now:     time.Now,
	}
	if cfg.MaxConcurrent > 0 {
		g.avail = int64(cfg.MaxConcurrent)
	}
	g.breakers = newBreakerSet(cfg.Breaker, func() time.Time { return g.now() })
	return g
}

// SetMetrics attaches a metrics registry; admission, queue-depth, memory
// and breaker-state instruments accumulate there. Nil records nothing.
func (g *Governor) SetMetrics(m *obs.Registry) {
	if g == nil {
		return
	}
	g.metrics = m
	g.breakers.metrics = m
}

// Breakers returns the governor's per-backend circuit breakers (never
// nil on a non-nil governor).
func (g *Governor) Breakers() *BreakerSet {
	if g == nil {
		return nil
	}
	return g.breakers
}

// lock/unlock implement the state mutex. A channel-based mutex (instead
// of sync.Mutex) keeps the invariant simple: everything that mutates
// admission state holds it, including the grant path in release.
func (g *Governor) lock()   { g.mu <- struct{}{} }
func (g *Governor) unlock() { <-g.mu }

// maxQueue resolves the configured queue bound.
func (g *Governor) maxQueue() int {
	if g.cfg.MaxQueue < 0 {
		return 0
	}
	if g.cfg.MaxQueue == 0 {
		return 4 * g.cfg.MaxConcurrent
	}
	return g.cfg.MaxQueue
}

// limited reports whether admission capacity is bounded.
func (g *Governor) limited() bool { return g.cfg.MaxConcurrent > 0 }

// ewmaMinSamples is how many completed runs the duration EWMA needs
// before deadline shedding trusts it (unless AvgRunHint seeded it).
const ewmaMinSamples = 3

// estimatedWait predicts how long a new waiter at queue position pos
// (0-based) will wait for a slot, from the EWMA run duration. Zero when
// no estimate exists yet, or while the estimator is cold (fewer than
// ewmaMinSamples runs observed and no operator hint) — a zero estimate
// admits, so cold starts queue optimistically instead of shedding on
// the evidence of a single run. Only called when capacity is bounded
// (queueing cannot happen otherwise).
func (g *Governor) estimatedWait(pos int) time.Duration {
	if g.ewmaRun <= 0 {
		return 0
	}
	if g.cfg.AvgRunHint <= 0 && g.ewmaSamples < ewmaMinSamples {
		return 0
	}
	// Slots free at roughly capacity per ewmaRun; the waiter at position
	// pos is granted in wave pos/capacity + 1 (pessimistically assuming
	// every current holder is mid-run).
	waves := int64(pos)/int64(g.cfg.MaxConcurrent) + 1
	return time.Duration(waves) * g.ewmaRun
}

// Ticket is one admitted run's claim on the governor: an admission slot
// plus any memory reserved through it. Release returns both; it is
// idempotent and must be called exactly when the run completes (success
// or failure).
type Ticket struct {
	g        *Governor
	weight   int64
	queued   time.Duration
	admitted time.Time
	reserved int64
	released bool
}

// Admit blocks until the run is granted an admission slot, the context
// is done, or the governor sheds it. Weight scales the slot (weight<=0
// is treated as 1; a plain run is 1). Shed paths — queue full, deadline
// unmeetable, shutting down — return typed exlerr.Overload errors
// without waiting. A nil Governor admits immediately with a no-op
// ticket.
func (g *Governor) Admit(ctx context.Context, weight int64) (*Ticket, error) {
	if g == nil {
		return nil, nil
	}
	if weight <= 0 {
		weight = 1
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g.lock()
	if g.draining {
		g.unlock()
		g.metrics.Counter(obs.Label(obs.MetricShed, "reason", "shutdown")).Inc()
		return nil, ErrShuttingDown
	}
	if !g.limited() || (g.avail >= weight && g.queue.Len() == 0) {
		if g.limited() {
			g.avail -= weight
		}
		g.inflight += weight
		g.metrics.Gauge(obs.MetricInFlight).Set(g.inflight)
		g.unlock()
		g.metrics.Counter(obs.MetricAdmitted).Inc()
		return &Ticket{g: g, weight: weight, admitted: g.now()}, nil
	}
	// Must queue. Reject fast when the queue is full or the deadline
	// cannot be met by the estimated wait.
	if g.queue.Len() >= g.maxQueue() {
		g.unlock()
		g.metrics.Counter(obs.Label(obs.MetricShed, "reason", "queue_full")).Inc()
		return nil, ErrQueueFull
	}
	if dl, ok := ctx.Deadline(); ok {
		if wait := g.estimatedWait(g.queue.Len()); wait > 0 && g.now().Add(wait).After(dl) {
			g.unlock()
			g.metrics.Counter(obs.Label(obs.MetricShed, "reason", "deadline")).Inc()
			return nil, ErrDeadline
		}
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	elem := g.queue.PushBack(w)
	g.metrics.Gauge(obs.MetricQueueDepth).Set(int64(g.queue.Len()))
	g.unlock()

	start := g.now()
	select {
	case <-w.ready:
		if w.err != nil {
			// Rejected while queued (shutdown).
			g.metrics.Counter(obs.Label(obs.MetricShed, "reason", "shutdown")).Inc()
			return nil, w.err
		}
		queued := g.now().Sub(start)
		g.metrics.Counter(obs.MetricAdmitted).Inc()
		g.metrics.Histogram(obs.MetricQueueWait).ObserveDuration(queued)
		return &Ticket{g: g, weight: weight, queued: queued, admitted: g.now()}, nil
	case <-ctx.Done():
		g.lock()
		select {
		case <-w.ready:
			// Granted concurrently with cancellation: the slot is ours,
			// give it back (or fail if the grant was a rejection).
			g.unlock()
			if w.err == nil {
				t := &Ticket{g: g, weight: weight, admitted: g.now()}
				t.Release()
			}
		default:
			g.queue.Remove(elem)
			g.metrics.Gauge(obs.MetricQueueDepth).Set(int64(g.queue.Len()))
			g.unlock()
		}
		return nil, ctx.Err()
	}
}

// grantLocked hands free capacity to queued waiters in FIFO order.
// Caller holds the state lock.
func (g *Governor) grantLocked() {
	for g.queue.Len() > 0 {
		w := g.queue.Front().Value.(*waiter)
		if w.weight > g.avail {
			return
		}
		g.queue.Remove(g.queue.Front())
		g.avail -= w.weight
		g.inflight += w.weight
		g.metrics.Gauge(obs.MetricInFlight).Set(g.inflight)
		close(w.ready)
	}
}

// Release returns the ticket's slot and memory reservation and feeds the
// run's hold time into the wait estimator. Idempotent; safe on a nil
// ticket (the nil-governor admission path).
func (t *Ticket) Release() {
	if t == nil || t.released {
		return
	}
	t.released = true
	g := t.g
	held := g.now().Sub(t.admitted)

	g.lock()
	if t.reserved > 0 {
		g.memUsed -= t.reserved
		g.metrics.Gauge(obs.MetricMemReserved).Set(g.memUsed)
	}
	g.inflight -= t.weight
	if g.limited() {
		g.avail += t.weight
		g.grantLocked()
		g.metrics.Gauge(obs.MetricQueueDepth).Set(int64(g.queue.Len()))
	}
	g.metrics.Gauge(obs.MetricInFlight).Set(g.inflight)
	// EWMA with alpha 1/4: responsive enough to track load shifts,
	// smooth enough that one outlier does not flip deadline shedding.
	// A negative hold (the injectable clock moved backwards, or system
	// time was stepped) is clamped to zero rather than folded in — a
	// negative average would silently disable wait estimation and could
	// never be ruled out by the arithmetic below.
	if held < 0 {
		held = 0
	}
	g.ewmaSamples++
	if g.ewmaRun == 0 {
		g.ewmaRun = held
	} else {
		g.ewmaRun += (held - g.ewmaRun) / 4
	}
	doClose := g.draining && g.inflight == 0 && !g.drainClosed
	if doClose {
		g.drainClosed = true
	}
	g.unlock()
	if doClose {
		close(g.drained)
	}
}

// Queued returns how long the run waited for admission.
func (t *Ticket) Queued() time.Duration {
	if t == nil {
		return 0
	}
	return t.queued
}

// Reserved returns the bytes currently reserved by this ticket.
func (t *Ticket) Reserved() int64 {
	if t == nil {
		return 0
	}
	return t.reserved
}

// Reserve charges bytes against the process-wide memory budget, on top of
// whatever the ticket already holds. It returns ErrMemoryBudget (typed
// Overload) when the charge does not fit, leaving the existing reservation
// unchanged. A nil ticket accepts everything.
func (t *Ticket) Reserve(bytes int64) error {
	if t == nil || bytes <= 0 {
		return nil
	}
	g := t.g
	g.lock()
	defer g.unlock()
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

// MemUsed returns the bytes currently reserved across all runs.
func (g *Governor) MemUsed() int64 {
	if g == nil {
		return 0
	}
	g.lock()
	defer g.unlock()
	return g.memUsed
}

// MemPeak returns the reservation high-water mark.
func (g *Governor) MemPeak() int64 {
	if g == nil {
		return 0
	}
	g.lock()
	defer g.unlock()
	return g.memPeak
}

// InFlight returns the admitted, unreleased weight.
func (g *Governor) InFlight() int64 {
	if g == nil {
		return 0
	}
	g.lock()
	defer g.unlock()
	return g.inflight
}

// Draining reports whether Shutdown has been initiated.
func (g *Governor) Draining() bool {
	if g == nil {
		return false
	}
	g.lock()
	defer g.unlock()
	return g.draining
}

// Shutdown stops admission — every queued waiter and every later Admit
// is rejected with ErrShuttingDown — and waits for in-flight runs to
// release their tickets. It returns nil once drained, or the context's
// error if the deadline expires first (in-flight runs keep running; the
// caller may retry Shutdown or abandon them). Idempotent and safe to
// call concurrently; a nil Governor returns nil.
func (g *Governor) Shutdown(ctx context.Context) error {
	if g == nil {
		return nil
	}
	g.lock()
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
	g.unlock()
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
