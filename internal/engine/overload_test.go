package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exlengine/internal/dispatch"
	"exlengine/internal/exlerr"
	"exlengine/internal/faults"
	"exlengine/internal/governor"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/store/durable"
	"exlengine/internal/workload"
)

func smallGDP() workload.Data {
	return workload.GDPSource(workload.GDPConfig{Days: 60, Regions: 2})
}

// TestConcurrentRunsBoundedByAdmission verifies both halves of the
// concurrency work: runs dispatch outside the engine mutex (so two can
// be in flight at once), and the governor caps them at MaxConcurrentRuns
// (so a third cannot).
func TestConcurrentRunsBoundedByAdmission(t *testing.T) {
	inside := make(chan struct{}, 16)
	release := make(chan struct{})
	var releaseOnce sync.Once
	gate := func(next dispatch.Runner) dispatch.Runner {
		return func(ctx context.Context, fr dispatch.Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
			select {
			case inside <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return next(ctx, fr, snap)
		}
	}
	e := newGDPEngine(t, smallGDP(), MaxConcurrentRuns(2), WithDispatchMiddleware(gate))

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.Run(context.Background(), RunAt(time.Unix(1, 0)))
		}()
	}
	// Two runs must reach dispatch concurrently: the engine mutex no
	// longer serializes execution.
	for i := 0; i < 2; i++ {
		select {
		case <-inside:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d run(s) reached dispatch; runs are serialized", i)
		}
	}
	// And no third: admission caps in-flight runs at 2.
	select {
	case <-inside:
		t.Fatal("a third run reached dispatch past MaxConcurrentRuns(2)")
	case <-time.After(100 * time.Millisecond):
	}
	if got := e.Governor().InFlight(); got != 2 {
		t.Errorf("InFlight = %d, want 2", got)
	}
	releaseOnce.Do(func() { close(release) })
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
}

// runEstimates measures, on a pristine engine over the same data, the
// input-snapshot estimate a run reserves up front and the materialized
// size of its results — the two quantities the memory budget tests need
// to bracket.
func runEstimates(t *testing.T) (inEst, outEst int64) {
	t.Helper()
	e := newGDPEngine(t, smallGDP())
	e.mu.Lock()
	schemas := e.allSchemasLocked()
	st := e.store
	e.mu.Unlock()
	snap, _, _ := st.SnapshotWithGenerations()
	for name, sch := range schemas {
		if _, ok := snap[name]; !ok {
			snap[name] = model.NewCube(sch).Freeze()
		}
	}
	inEst = model.MemEstimateOf(snap)

	if _, err := e.Run(context.Background(), RunAt(time.Unix(1, 0))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG"} {
		c, ok := e.Cube(name)
		if !ok {
			t.Fatalf("derived cube %s missing", name)
		}
		outEst += c.MemEstimate()
	}
	return inEst, outEst
}

// TestMemoryBudgetRejectsRun: a budget below even the degraded (half)
// estimate sheds the run with a typed overload error before any dispatch
// work, leaving the store untouched.
func TestMemoryBudgetRejectsRun(t *testing.T) {
	inEst, _ := runEstimates(t)
	e := newGDPEngine(t, smallGDP(), WithParallelDispatch(), MemoryBudget(inEst/2-1))
	genBefore := e.store.Generation()
	_, err := e.Run(context.Background(), RunAt(time.Unix(1, 0)))
	if !errors.Is(err, governor.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	if !exlerr.IsOverload(err) {
		t.Errorf("rejection is not typed overload: %v", err)
	}
	if _, ok := e.Cube("GDP"); ok {
		t.Error("rejected run persisted results")
	}
	if e.store.Generation() != genBefore {
		t.Error("rejected run advanced the store generation")
	}
	if e.Governor().MemUsed() != 0 {
		t.Errorf("MemUsed = %d after rejected run, want 0", e.Governor().MemUsed())
	}
}

// TestMemoryBudgetDegradesToSequential: a budget that fits the
// sequential estimate but not the full-parallel one turns parallel
// dispatch off for the run instead of rejecting it; the run completes
// correctly and reports the degradation.
func TestMemoryBudgetDegradesToSequential(t *testing.T) {
	inEst, outEst := runEstimates(t)
	budget := inEst / 2
	if outEst > budget {
		budget = outEst
	}
	if budget >= inEst {
		t.Skipf("results (%d) as large as inputs (%d); no degradation window", outEst, inEst)
	}
	mx := obs.NewRegistry()
	e := newGDPEngine(t, smallGDP(), WithParallelDispatch(), MemoryBudget(budget), WithMetrics(mx))
	rep, err := e.Run(context.Background(), RunAt(time.Unix(1, 0)))
	if err != nil {
		t.Fatalf("degradable run rejected: %v", err)
	}
	if !rep.MemDegraded {
		t.Error("report does not mark the run memory-degraded")
	}
	if rep.MemReserved <= 0 || rep.MemReserved > budget {
		t.Errorf("MemReserved = %d, want within (0, %d]", rep.MemReserved, budget)
	}
	if got := mx.Counter(obs.MetricMemDegraded).Value(); got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}
	if peak := e.Governor().MemPeak(); peak > budget {
		t.Errorf("MemPeak = %d exceeds budget %d", peak, budget)
	}
	if c, ok := e.Cube("GDP"); !ok || c.Len() == 0 {
		t.Error("degraded run lost its results")
	}
}

// TestAdmissionDoesNotChangeDispatch: an admission limit bounds how many
// runs execute at once and nothing else. Under one injector that fails
// every sql attempt, an engine with MaxConcurrentRuns tries the same
// targets in the same order as a plain one, run after run, and still tries
// sql on the last run however often it failed before.
func TestAdmissionDoesNotChangeDispatch(t *testing.T) {
	const runs = 6
	fs := make([]faults.Fault, 128)
	for i := range fs {
		fs[i] = faults.Fault{Fragment: faults.AnyFragment, Target: ops.TargetSQL, Kind: faults.Error, Class: exlerr.Fatal}
	}
	sqlDown := faults.NewInjector(fs...).Middleware()
	plain := newGDPEngine(t, smallGDP(), WithDispatchMiddleware(sqlDown))
	governed := newGDPEngine(t, smallGDP(), MaxConcurrentRuns(4), WithDispatchMiddleware(sqlDown))

	for run := 1; run <= runs; run++ {
		asOf := RunAt(time.Unix(int64(run), 0))
		want, err := plain.Run(context.Background(), asOf)
		if err != nil {
			t.Fatalf("run %d, plain engine: %v", run, err)
		}
		got, err := governed.Run(context.Background(), asOf)
		if err != nil {
			t.Fatalf("run %d, governed engine: %v", run, err)
		}
		if len(got.Fragments) != len(want.Fragments) {
			t.Fatalf("run %d: %d fragments under admission, %d without", run, len(got.Fragments), len(want.Fragments))
		}
		sqlTried := false
		for i := range want.Fragments {
			if !reflect.DeepEqual(got.Fragments[i].Attempts, want.Fragments[i].Attempts) {
				t.Fatalf("run %d fragment %d: attempts under admission %+v, without %+v",
					run, i, got.Fragments[i].Attempts, want.Fragments[i].Attempts)
			}
			for _, a := range want.Fragments[i].Attempts {
				if a.Target != ops.TargetSQL {
					continue
				}
				sqlTried = true
				if a.Err == "" {
					t.Fatalf("run %d: an sql attempt succeeded; the injector ran out of faults", run)
				}
			}
		}
		if run == runs && !sqlTried {
			t.Errorf("run %d attempted no fragment on sql", run)
		}
	}
}

// TestOverloadChaosHarness is the acceptance scenario: a worker fleet at
// four times the engine's admitted capacity, with injected backend faults,
// must leave every run either completed (falling back around the faults)
// or failed with a typed error — while reserved memory stays under the
// budget, runs are shed with overload errors rather than queued to death,
// and the goroutine count returns to baseline.
func TestOverloadChaosHarness(t *testing.T) {
	before := runtime.NumGoroutine()
	data := smallGDP()

	var fs []faults.Fault
	for i := 0; i < 8; i++ {
		fs = append(fs,
			faults.Fault{Fragment: faults.AnyFragment, Target: ops.TargetSQL, Kind: faults.Error, Class: exlerr.Fatal},
			faults.Fault{Fragment: faults.AnyFragment, Target: ops.TargetETL, Kind: faults.Error, Class: exlerr.Fatal},
			faults.Fault{Fragment: faults.AnyFragment, Target: ops.TargetFrame, Kind: faults.Panic},
		)
	}
	inj := faults.NewInjector(fs...)

	mx := obs.NewRegistry()
	const budget = int64(64) << 20
	gov := governor.New(governor.Config{
		MaxConcurrent: 2,
		MaxQueue:      -1, // no queue: excess load sheds immediately
		MemoryBudget:  budget,
	})
	e := newGDPEngine(t, data,
		WithGovernor(gov), WithMetrics(mx), WithParallelDispatch(),
		WithDispatchMiddleware(inj.Middleware()))

	var ok, shed, failed, untyped, fallbacks atomic.Int64
	cfg := workload.ConcurrentConfig{Workers: 8, Iters: 6} // 4x admitted capacity
	_, werr := workload.RunConcurrently(context.Background(), cfg, func(ctx context.Context) error {
		rep, err := e.Run(ctx, RunAt(time.Unix(1, 0)))
		switch {
		case err == nil:
			ok.Add(1)
			fallbacks.Add(int64(rep.Fallbacks))
		case exlerr.IsOverload(err):
			shed.Add(1)
		case exlerr.ClassOf(err) == exlerr.Fatal:
			// A classified dispatch failure (injected faults can exhaust
			// every fallback): typed, so acceptable under chaos.
			failed.Add(1)
		default:
			untyped.Add(1)
		}
		return nil // the harness itself never aborts
	})
	if werr != nil {
		t.Fatalf("harness error: %v", werr)
	}
	total := ok.Load() + shed.Load() + failed.Load() + untyped.Load()
	if total != int64(cfg.Workers*cfg.Iters) {
		t.Fatalf("accounted %d of %d runs", total, cfg.Workers*cfg.Iters)
	}
	t.Logf("chaos: %d ok, %d shed, %d failed typed, %d untyped", ok.Load(), shed.Load(), failed.Load(), untyped.Load())
	if untyped.Load() != 0 {
		t.Errorf("%d run(s) failed without a typed/classified error", untyped.Load())
	}
	if ok.Load() == 0 {
		t.Error("no run completed under chaos")
	}
	if shed.Load() == 0 {
		t.Error("no run was shed at 4x capacity with no queue")
	}
	if fallbacks.Load() == 0 {
		t.Error("no completed run fell back around the injected faults")
	}
	if got := counterSum(mx, obs.MetricFallbacks); got < fallbacks.Load() {
		t.Errorf("fallback counter = %d, completed runs' reports say %d", got, fallbacks.Load())
	}
	if peak := gov.MemPeak(); peak <= 0 || peak > budget {
		t.Errorf("MemPeak = %d, want within (0, %d]", peak, budget)
	}
	if gov.MemUsed() != 0 || gov.InFlight() != 0 {
		t.Errorf("governor not drained: mem=%d inflight=%d", gov.MemUsed(), gov.InFlight())
	}
	if got := mx.Counter(obs.Label(obs.MetricShed, "reason", "queue_full")).Value(); got != shed.Load() {
		t.Errorf("shed counter = %d, harness saw %d", got, shed.Load())
	}
	waitNoGoroutineLeak(t, before)
}

// TestShutdownUnderLoadLosesNoAckedCommits: Engine.Shutdown during a
// concurrent workload stops admission with typed errors, drains
// in-flight runs, and closes the durable store such that every
// acknowledged run survives recovery.
func TestShutdownUnderLoadLosesNoAckedCommits(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.WithGroupCommit(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	e := newGDPEngine(t, smallGDP(), WithStore(st), MaxConcurrentRuns(3))
	genBase := st.Generation()

	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := e.Run(context.Background(), RunAt(time.Unix(1, 0)))
				if err != nil {
					if !exlerr.IsOverload(err) {
						t.Errorf("run failed untyped during shutdown: %v", err)
					}
					return
				}
				acked.Add(1)
			}
		}()
	}

	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	if _, err := e.Run(context.Background()); !errors.Is(err, governor.ErrShuttingDown) {
		t.Errorf("post-shutdown run err = %v, want ErrShuttingDown", err)
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}

	// Every acked run persisted exactly one atomic PutAllGen; recovery must
	// see at least that many generations past the setup writes.
	re, err := durable.Open(dir)
	if err != nil {
		t.Fatalf("reopen after shutdown: %v", err)
	}
	defer re.Close()
	if got, want := re.Generation(), genBase+uint64(acked.Load()); got < want {
		t.Errorf("recovered generation %d < %d (setup %d + %d acked runs): acked commits lost",
			got, want, genBase, acked.Load())
	}
	if c, ok := re.Get("GDP"); acked.Load() > 0 && (!ok || c.Len() == 0) {
		t.Error("GDP cube missing after recovery despite acked runs")
	}
	waitNoGoroutineLeak(t, before)
}

// TestDeadlineShedBeforeQueueing: a run whose deadline cannot be met by
// the estimated queue wait is rejected immediately with a typed overload
// error instead of being queued to die.
func TestDeadlineShedBeforeQueueing(t *testing.T) {
	gov := governor.New(governor.Config{MaxConcurrent: 1, AvgRunHint: time.Hour})
	e := newGDPEngine(t, smallGDP(), WithGovernor(gov))

	// Occupy the only slot directly.
	ticket, err := gov.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ticket.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = e.Run(ctx, RunAt(time.Unix(1, 0)))
	if !errors.Is(err, governor.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if time.Since(start) > 40*time.Millisecond {
		t.Error("deadline shed waited instead of rejecting immediately")
	}
}

// TestRunEstimatesResultsOnce: a stored result is a frozen cube, whose
// estimate is column lengths over a key set estimated once — so every later
// budgeting of it (the next run's snapshot estimate first of all) is O(1) and
// allocates nothing.
func TestRunEstimatesResultsOnce(t *testing.T) {
	sch := model.NewSchema("S", []model.Dim{{Name: "i", Type: model.TInt}}, "v")
	s := model.NewCube(sch)
	for i := 0; i < 500; i++ {
		if err := s.Put([]model.Value{model.Int(int64(i))}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	e := New()
	if err := e.RegisterProgram("p", "cube S(i: int) measure v\nA := S * 2\n"); err != nil {
		t.Fatal(err)
	}
	if err := e.PutCube(s, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), RunAt(time.Unix(1, 0))); err != nil {
		t.Fatal(err)
	}
	a, ok := e.Cube("A")
	if !ok || a.Len() != 500 {
		t.Fatal("derived cube A missing")
	}

	if !a.Frozen() || testing.AllocsPerRun(10, func() { a.MemEstimate() }) != 0 {
		t.Error("estimating the stored result again is not free")
	}
	if est := a.MemEstimate(); est != a.Clone().Freeze().MemEstimate() {
		t.Errorf("estimate %d differs from a fresh walk", est)
	}
}
