package governor

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exlengine/internal/exlerr"
	"exlengine/internal/obs"
)

// TestAdmitImmediate: under capacity, Admit grants without queueing.
func TestAdmitImmediate(t *testing.T) {
	mx := obs.NewRegistry()
	g := New(Config{MaxConcurrent: 2}, mx)
	t1, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := mx.Gauge(obs.MetricInFlight).Value(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	t1.Release()
	t2.Release()
	t2.Release() // idempotent
	if got := mx.Gauge(obs.MetricInFlight).Value(); got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
}

// TestAdmitQueuesFIFO: over capacity, waiters queue and are granted in
// order as slots free.
func TestAdmitQueuesFIFO(t *testing.T) {
	g := New(Config{MaxConcurrent: 1}, nil)
	first, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := g.Admit(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			tk.Release()
		}()
		// Give each goroutine time to enqueue so FIFO order is
		// deterministic.
		waitFor(t, func() bool { return queueLen(g) == i+1 })
	}
	first.Release()
	wg.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

func queueLen(g *Governor) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queue.Len()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in 5s")
}

// TestQueueFullSheds: the wait queue holds four runs per admission slot;
// past that, Admit rejects immediately with a typed overload error.
func TestQueueFullSheds(t *testing.T) {
	g := New(Config{MaxConcurrent: 1}, nil)
	tk, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Release()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk2, err := g.Admit(context.Background())
			if err == nil {
				tk2.Release()
			}
		}()
	}
	waitFor(t, func() bool { return queueLen(g) == 4 })
	_, err = g.Admit(context.Background())
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if !exlerr.IsOverload(err) {
		t.Fatalf("queue-full error is not typed Overload: %v", err)
	}
	tk.Release()
	wg.Wait()
}

// TestAdmitCancelledWhileQueued: cancelling a queued waiter removes it
// from the queue and returns the context error.
func TestAdmitCancelledWhileQueued(t *testing.T) {
	g := New(Config{MaxConcurrent: 1}, nil)
	tk, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		tk2, err := g.Admit(ctx)
		if err == nil {
			tk2.Release()
		}
		done <- err
	}()
	waitFor(t, func() bool { return queueLen(g) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := queueLen(g); got != 0 {
		t.Fatalf("queue length after cancel = %d, want 0", got)
	}
	tk.Release()
	// Capacity must not have leaked: the slot is immediately grantable.
	tk3, err := g.Admit(context.Background())
	if err != nil {
		t.Fatalf("slot leaked after queued cancel: %v", err)
	}
	tk3.Release()
}

// TestMemoryBudget: the process-wide budget rejects with a typed overload
// error, and releases return the reservation.
func TestMemoryBudget(t *testing.T) {
	mx := obs.NewRegistry()
	g := New(Config{MemoryBudget: 1000}, mx)
	used := mx.Gauge(obs.MetricMemReserved)
	t1, _ := g.Admit(context.Background())
	if err := t1.Reserve(500); err != nil {
		t.Fatal(err)
	}
	t2, _ := g.Admit(context.Background())
	if err := t2.Reserve(600); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("process overrun: err = %v, want ErrMemoryBudget", err)
	}
	if err := t2.Reserve(400); err != nil {
		t.Fatal(err)
	}
	if got := used.Value(); got != 900 {
		t.Fatalf("reserved = %d, want 900", got)
	}
	t1.Release()
	if got := used.Value(); got != 400 {
		t.Fatalf("reserved after release = %d, want 400", got)
	}
	t2.Release()
	if got, peak := used.Value(), mx.Gauge(obs.MetricMemPeak).Value(); got != 0 || peak != 900 {
		t.Fatalf("reserved = %d (want 0), peak = %d (want 900)", got, peak)
	}
}

// TestShutdownDrains: Shutdown rejects queued and new work, waits for
// in-flight releases, and is idempotent.
func TestShutdownDrains(t *testing.T) {
	g := New(Config{MaxConcurrent: 1}, nil)
	tk, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queuedErr := make(chan error, 1)
	go func() {
		tk2, err := g.Admit(context.Background())
		if err == nil {
			tk2.Release()
		}
		queuedErr <- err
	}()
	waitFor(t, func() bool { return queueLen(g) == 1 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- g.Shutdown(context.Background()) }()
	if err := <-queuedErr; !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("queued waiter err = %v, want ErrShuttingDown", err)
	}
	if _, err := g.Admit(context.Background()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("new admit err = %v, want ErrShuttingDown", err)
	}
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned with a run still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	tk.Release()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatalf("repeated Shutdown = %v, want nil", err)
	}
}

// TestShutdownTimeout: a deadline that expires before the drain finishes
// surfaces the context error; runs keep running.
func TestShutdownTimeout(t *testing.T) {
	g := New(Config{MaxConcurrent: 1}, nil)
	tk, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	tk.Release()
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown retry after drain = %v, want nil", err)
	}
}

// TestUnlimitedTracksInflight: with no concurrency bound, admission
// never blocks but Shutdown still drains.
func TestUnlimitedTracksInflight(t *testing.T) {
	mx := obs.NewRegistry()
	g := New(Config{}, mx)
	var tks []*Ticket
	for i := 0; i < 32; i++ {
		tk, err := g.Admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	if got := mx.Gauge(obs.MetricInFlight).Value(); got != 32 {
		t.Fatalf("inflight = %d, want 32", got)
	}
	done := make(chan error, 1)
	go func() { done <- g.Shutdown(context.Background()) }()
	for _, tk := range tks {
		tk.Release()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionUnderContention hammers Admit/Release from more goroutines
// than the slots and the queue hold (a shed caller comes back) and asserts
// that holders never exceed capacity and everything drains.
func TestAdmissionUnderContention(t *testing.T) {
	const capacity = 4
	mx := obs.NewRegistry()
	g := New(Config{MaxConcurrent: capacity}, mx)
	var running, maxRunning atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := g.Admit(context.Background())
			for errors.Is(err, ErrQueueFull) {
				time.Sleep(time.Millisecond)
				tk, err = g.Admit(context.Background())
			}
			if err != nil {
				t.Error(err)
				return
			}
			n := running.Add(1)
			for {
				old := maxRunning.Load()
				if n <= old || maxRunning.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			tk.Release()
		}()
	}
	wg.Wait()
	if got := maxRunning.Load(); got > capacity {
		t.Fatalf("observed %d concurrent holders, capacity %d", got, capacity)
	}
	if got := mx.Gauge(obs.MetricInFlight).Value(); got != 0 {
		t.Fatalf("inflight after drain = %d", got)
	}
	if got := mx.Counter(obs.MetricAdmitted).Value(); got != 64 {
		t.Fatalf("admitted counter = %d, want 64", got)
	}
}
