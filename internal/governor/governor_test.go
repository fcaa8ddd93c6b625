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
	g := New(Config{MaxConcurrent: 2})
	t1, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.InFlight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	t1.Release()
	t2.Release()
	t2.Release() // idempotent
	if got := g.InFlight(); got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
}

// TestAdmitQueuesFIFO: over capacity, waiters queue and are granted in
// order as slots free.
func TestAdmitQueuesFIFO(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 8})
	first, err := g.Admit(context.Background(), 1)
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
			tk, err := g.Admit(context.Background(), 1)
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
	g.lock()
	defer g.unlock()
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

// TestQueueFullSheds: a full wait queue rejects immediately with a typed
// overload error.
func TestQueueFullSheds(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	tk, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Release()
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk2, err := g.Admit(context.Background(), 1)
		if err == nil {
			tk2.Release()
		}
	}()
	waitFor(t, func() bool { return queueLen(g) == 1 })
	_, err = g.Admit(context.Background(), 1)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if !exlerr.IsOverload(err) {
		t.Fatalf("queue-full error is not typed Overload: %v", err)
	}
	tk.Release()
	<-done
}

// TestNoQueue: MaxQueue < 0 rejects as soon as capacity is exhausted.
func TestNoQueue(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	tk, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Release()
	if _, err := g.Admit(context.Background(), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// TestDeadlineAwareShedding: a run whose deadline cannot be met by the
// estimated queue wait is rejected immediately instead of queued.
func TestDeadlineAwareShedding(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 8, AvgRunHint: time.Minute})
	tk, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = g.Admit(ctx, 1)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !exlerr.IsOverload(err) {
		t.Fatalf("deadline shed is not typed Overload: %v", err)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("deadline shed waited %v; must reject immediately", d)
	}
	// A deadline the estimate can meet queues normally.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel2()
	done := make(chan error, 1)
	go func() {
		tk2, err := g.Admit(ctx2, 1)
		if err == nil {
			tk2.Release()
		}
		done <- err
	}()
	waitFor(t, func() bool { return queueLen(g) == 1 })
	tk.Release()
	if err := <-done; err != nil {
		t.Fatalf("meetable deadline was shed: %v", err)
	}
}

// TestAdmitCancelledWhileQueued: cancelling a queued waiter removes it
// from the queue and returns the context error.
func TestAdmitCancelledWhileQueued(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 4})
	tk, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		tk2, err := g.Admit(ctx, 1)
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
	tk3, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatalf("slot leaked after queued cancel: %v", err)
	}
	tk3.Release()
}

// TestMemoryBudget: the process-wide budget rejects with a typed overload
// error, and releases return the reservation.
func TestMemoryBudget(t *testing.T) {
	g := New(Config{MemoryBudget: 1000})
	t1, _ := g.Admit(context.Background(), 1)
	if err := t1.Reserve(500); err != nil {
		t.Fatal(err)
	}
	t2, _ := g.Admit(context.Background(), 1)
	if err := t2.Reserve(600); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("process overrun: err = %v, want ErrMemoryBudget", err)
	}
	if err := t2.Reserve(400); err != nil {
		t.Fatal(err)
	}
	if got := g.MemUsed(); got != 900 {
		t.Fatalf("MemUsed = %d, want 900", got)
	}
	t1.Release()
	if got := g.MemUsed(); got != 400 {
		t.Fatalf("MemUsed after release = %d, want 400", got)
	}
	t2.Release()
	if got, peak := g.MemUsed(), g.MemPeak(); got != 0 || peak != 900 {
		t.Fatalf("MemUsed = %d (want 0), MemPeak = %d (want 900)", got, peak)
	}
}

// TestShutdownDrains: Shutdown rejects queued and new work, waits for
// in-flight releases, and is idempotent.
func TestShutdownDrains(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 4})
	tk, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	queuedErr := make(chan error, 1)
	go func() {
		tk2, err := g.Admit(context.Background(), 1)
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
	if _, err := g.Admit(context.Background(), 1); !errors.Is(err, ErrShuttingDown) {
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
	g := New(Config{MaxConcurrent: 1})
	tk, err := g.Admit(context.Background(), 1)
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

// TestNilGovernor: every method no-ops on a nil governor and tickets.
func TestNilGovernor(t *testing.T) {
	var g *Governor
	tk, err := g.Admit(context.Background(), 1)
	if err != nil || tk != nil {
		t.Fatalf("nil governor Admit = (%v, %v)", tk, err)
	}
	if err := tk.Reserve(1 << 40); err != nil {
		t.Fatalf("nil ticket Reserve = %v", err)
	}
	tk.Release()
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g.InFlight() != 0 || g.MemUsed() != 0 || g.Breakers() != nil {
		t.Fatal("nil governor leaked state")
	}
}

// TestUnlimitedTracksInflight: with no concurrency bound, admission
// never blocks but Shutdown still drains.
func TestUnlimitedTracksInflight(t *testing.T) {
	g := New(Config{})
	var tks []*Ticket
	for i := 0; i < 32; i++ {
		tk, err := g.Admit(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	if got := g.InFlight(); got != 32 {
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

// TestAdmissionUnderContention hammers Admit/Release from many
// goroutines and asserts the inflight gauge never exceeds capacity and
// everything drains.
func TestAdmissionUnderContention(t *testing.T) {
	const capacity = 4
	mx := obs.NewRegistry()
	g := New(Config{MaxConcurrent: capacity, MaxQueue: 1000})
	g.SetMetrics(mx)
	var running, maxRunning atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := g.Admit(context.Background(), 1)
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
	if got := g.InFlight(); got != 0 {
		t.Fatalf("inflight after drain = %d", got)
	}
	if got := mx.Counter(obs.MetricAdmitted).Value(); got != 64 {
		t.Fatalf("admitted counter = %d, want 64", got)
	}
}

// TestEWMAColdStartGuard: with no AvgRunHint, deadline shedding must not
// trust the run-duration EWMA until ewmaMinSamples runs have completed.
// One anomalously slow first run (e.g. cold caches) would otherwise shed
// every deadline-bearing request that follows it.
func TestEWMAColdStartGuard(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 8})
	cur := time.Now()
	g.now = func() time.Time { return cur }

	// Two hour-long runs: the estimator has data, but is still cold
	// (fewer than ewmaMinSamples), so a tight deadline must queue
	// instead of being shed on the evidence of the slow starts.
	for i := 0; i < 2; i++ {
		tk, err := g.Admit(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		cur = cur.Add(time.Hour)
		tk.Release()
	}
	holder, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Deadline anchored to the (advanced) fake clock: far in the real
	// future, so the context itself never fires during the test, but
	// hopeless if the 1h EWMA were trusted.
	ctx, cancel := context.WithDeadline(context.Background(), cur.Add(50*time.Millisecond))
	done := make(chan error, 1)
	go func() {
		tk, err := g.Admit(ctx, 1)
		if err == nil {
			tk.Release()
		}
		done <- err
	}()
	waitFor(t, func() bool { return queueLen(g) == 1 }) // queued, not shed
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cold-estimator waiter: err = %v, want context.Canceled (queued)", err)
	}

	// The third completed run warms the estimator; the same tight
	// deadline is now shed immediately.
	cur = cur.Add(time.Hour)
	holder.Release()
	holder2, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer holder2.Release()
	ctx2, cancel2 := context.WithDeadline(context.Background(), cur.Add(50*time.Millisecond))
	defer cancel2()
	if _, err := g.Admit(ctx2, 1); !errors.Is(err, ErrDeadline) {
		t.Fatalf("warm-estimator waiter: err = %v, want ErrDeadline", err)
	}
}

// TestEWMANegativeHeldClamped: a run whose hold duration comes out
// negative (system clock stepped backwards mid-run) must not be folded
// into the EWMA as-is — a negative average would silently disable wait
// estimation. It is clamped to zero and counted as a sample.
func TestEWMANegativeHeldClamped(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 8})
	cur := time.Now()
	g.now = func() time.Time { return cur }

	tk, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cur = cur.Add(time.Minute)
	tk.Release() // ewmaRun = 1m

	tk2, err := g.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cur = cur.Add(-time.Hour) // clock stepped backwards mid-run
	tk2.Release()

	g.lock()
	ewma, samples := g.ewmaRun, g.ewmaSamples
	g.unlock()
	if samples != 2 {
		t.Fatalf("ewmaSamples = %d, want 2 (clamped run still counts)", samples)
	}
	if want := time.Minute - time.Minute/4; ewma != want {
		t.Fatalf("ewmaRun = %v, want %v (negative hold folded as zero)", ewma, want)
	}
}
