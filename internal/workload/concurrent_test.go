package workload

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"exlengine/internal/engine"
	"exlengine/internal/obs"
)

// newGDPEngine builds an engine loaded with the GDP program and its
// synthetic source cubes.
func newGDPEngine(t *testing.T, cfg GDPConfig, opts ...engine.Option) *engine.Engine {
	t.Helper()
	eng := engine.New(opts...)
	if err := eng.RegisterProgram("gdp", GDPProgram); err != nil {
		t.Fatal(err)
	}
	data := GDPSource(cfg)
	for _, name := range []string{"PDR", "RGDPPC"} {
		if err := eng.PutCube(data[name], time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestRunConcurrently exercises the zero-copy read path under real
// concurrency: N workers re-running the GDP plan against one shared
// store while reading every cube back. Under `go test -race` this is the
// regression test for the frozen-cube discipline — before the store
// handed out shared references, races here were prevented only by deep
// clones.
func TestRunConcurrently(t *testing.T) {
	mx := obs.NewRegistry()
	eng := newGDPEngine(t, GDPConfig{Days: 120, Regions: 3},
		engine.WithMetrics(mx))
	asOf := time.Unix(1, 0)
	cfg := ConcurrentConfig{Workers: 4, Iters: 3}
	runs, err := RunConcurrently(context.Background(), cfg, func(ctx context.Context) error {
		if _, err := eng.Run(ctx, engine.RunAt(asOf)); err != nil {
			return err
		}
		// Snapshot-style read-back over shared frozen references.
		for _, name := range eng.CubeNames() {
			if c, ok := eng.Cube(name); ok && c.Len() < 0 {
				return fmt.Errorf("negative cube size for %s", name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Workers * cfg.Iters; runs != want {
		t.Fatalf("completed %d runs, want %d", runs, want)
	}
	if got := mx.Counter(obs.MetricRuns).Value(); got != int64(runs) {
		t.Errorf("runs counter = %d, want %d", got, runs)
	}
	gdp, ok := eng.Cube("GDP")
	if !ok || gdp.Len() == 0 {
		t.Fatalf("GDP cube missing or empty after concurrent runs")
	}
	if !gdp.Frozen() {
		t.Errorf("store returned an unfrozen cube")
	}
}

// TestRunConcurrentlyPropagatesError: the first failure is reported and
// the worker that hit it stops.
func TestRunConcurrentlyPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	runs, err := RunConcurrently(context.Background(), ConcurrentConfig{Workers: 2, Iters: 3},
		func(context.Context) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if runs != 0 {
		t.Errorf("runs = %d, want 0", runs)
	}
}

// waitNoLeak polls until the goroutine count returns to the baseline
// (the engine/faulttol leak-check pattern).
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

// TestRunConcurrentlyCancelMidRun: cancelling the context mid-workload
// stops every worker at its next iteration boundary, reports the
// cancellation, leaves a coherent partial count, and leaks no
// goroutines.
func TestRunConcurrentlyCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := newGDPEngine(t, GDPConfig{Days: 60, Regions: 2})
	ctx, cancel := context.WithCancel(context.Background())

	var completed atomic.Int64
	cfg := ConcurrentConfig{Workers: 4, Iters: 1000} // far more than can finish
	runs, err := RunConcurrently(ctx, cfg, func(ctx context.Context) error {
		if _, err := eng.Run(ctx, engine.RunAt(time.Unix(1, 0))); err != nil {
			return err
		}
		if completed.Add(1) >= 4 {
			cancel() // a few runs in, pull the plug
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if runs < 4 || runs >= cfg.Workers*cfg.Iters {
		t.Fatalf("partial count = %d, want a few completed runs, far fewer than %d", runs, cfg.Workers*cfg.Iters)
	}
	// Counted runs never exceed the closure's own tally (runs that were
	// cancelled mid-flight must not be counted as completed).
	if int64(runs) > completed.Load() {
		t.Errorf("reported %d completed runs but only %d closures finished", runs, completed.Load())
	}
	waitNoLeak(t, before)
}

// TestRunConcurrentlyPreCancelled: an already-cancelled context starts
// no runs at all.
func TestRunConcurrentlyPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	runs, err := RunConcurrently(ctx, ConcurrentConfig{Workers: 3, Iters: 5},
		func(context.Context) error { calls.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if runs != 0 || calls.Load() != 0 {
		t.Errorf("runs=%d calls=%d, want zero work under a dead context", runs, calls.Load())
	}
}
