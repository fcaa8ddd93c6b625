package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"exlengine/internal/exlerr"
	"exlengine/internal/faults"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

func waitNoGoroutineLeak(t *testing.T, before int) {
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

// TestFaultToleranceEndToEnd is the acceptance scenario of the
// fault-tolerance work: a run with an injected panic in one ETL step and a
// fatal SQL-engine error completes by falling back, produces cubes
// identical to the chase solution, leaks no goroutines, and its Report
// lists every fallback.
func TestFaultToleranceEndToEnd(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 370, Regions: 3})
	ref := chaseReference(t, data)

	// Fault 1: the first ETL step to run panics (a crashing step inside
	// the streaming runtime).
	restore := faults.PanicETLStep("")
	defer restore()
	// Fault 2: the first SQL-engine attempt fails.
	inj := faults.NewInjector(faults.Fault{
		Fragment: faults.AnyFragment, Target: ops.TargetSQL, Kind: faults.Error, Class: exlerr.Fatal,
	})
	e := newGDPEngine(t, data, WithDispatchMiddleware(inj.Middleware()))

	before := runtime.NumGoroutine()
	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("run must survive both faults: %v", err)
	}

	// Results match the reference chase solution exactly.
	for _, rel := range []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG"} {
		got, ok := e.Cube(rel)
		if !ok {
			t.Fatalf("cube %s missing after degraded run", rel)
		}
		if !got.Equal(ref[rel], 1e-6) {
			t.Errorf("%s differs from chase:\n%s", rel, strings.Join(got.Diff(ref[rel], 1e-6, 5), "\n"))
		}
	}

	// The report records the SQL fallback...
	if rep.Fallbacks != 2 || rep.Retries != 0 {
		t.Errorf("Fallbacks = %d, Retries = %d, want 2 and 0\n%+v", rep.Fallbacks, rep.Retries, rep.Fragments)
	}
	var sawSQLFallback bool
	for _, fr := range rep.Fragments {
		if fr.Primary != ops.TargetSQL || !fr.Degraded() {
			continue
		}
		sawSQLFallback = true
		if a := fr.Attempts[0]; a.Target != ops.TargetSQL || a.Class != exlerr.Fatal || a.Panic {
			t.Errorf("first attempt = %+v, want the injected fatal sql error", a)
		}
		if len(fr.Attempts) != 2 || fr.Attempts[1].Target != fr.Final || fr.Attempts[1].Err != "" {
			t.Errorf("fallback not recorded as one successful attempt: %+v", fr.Attempts)
		}
	}
	if !sawSQLFallback {
		t.Errorf("no fragment records the SQL fallback: %+v", rep.Fragments)
	}

	// ...and the panic-driven fallback of the ETL fragment.
	var sawFallback bool
	for _, fr := range rep.Fragments {
		if fr.Primary != ops.TargetETL || !fr.Degraded() {
			continue
		}
		sawFallback = true
		if !fr.Attempts[0].Panic {
			t.Errorf("ETL attempt not recorded as panic: %+v", fr.Attempts[0])
		}
		if fr.Attempts[0].Class != exlerr.Fatal {
			t.Errorf("recovered panic class = %v, want Fatal", fr.Attempts[0].Class)
		}
		if fr.Final == ops.TargetETL || fr.Final == "" {
			t.Errorf("Final = %v after degradation", fr.Final)
		}
		if len(fr.Fallbacks) == 0 || fr.Fallbacks[0] != fr.Final {
			t.Errorf("fallback decision not recorded: %+v", fr)
		}
	}
	if !sawFallback {
		t.Errorf("no fragment records the ETL degradation: %+v", rep.Fragments)
	}
	if len(inj.Fired()) != 1 {
		t.Errorf("injector fired %d times, want 1", len(inj.Fired()))
	}

	waitNoGoroutineLeak(t, before)
}

// TestRunContextCancelled: a cancelled context aborts the run before
// any work and persists nothing.
func TestRunContextCancelled(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 100, Regions: 2})
	e := newGDPEngine(t, data)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, ok := e.Cube("GDP"); ok {
		t.Error("cancelled run persisted results")
	}
}

// TestWithoutDegradationFailsRun: with fallback disabled, a persistently
// failing fragment fails the whole run and nothing is stored.
func TestWithoutDegradationFailsRun(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 100, Regions: 2})
	inj := faults.NewInjector(faults.Fault{Fragment: 0, Kind: faults.Error, Class: exlerr.Fatal})
	e := newGDPEngine(t, data, WithoutDegradation(), WithDispatchMiddleware(inj.Middleware()))
	if _, err := e.Run(context.Background()); err == nil {
		t.Fatal("fatal fragment error with degradation off must fail the run")
	}
	for _, rel := range []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG"} {
		if _, ok := e.Cube(rel); ok {
			t.Errorf("failed run persisted %s", rel)
		}
	}
}

// TestDegradedParallelRunMatchesChase: faults and degradation compose with
// the wave-parallel dispatcher.
func TestDegradedParallelRunMatchesChase(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 370, Regions: 3})
	ref := chaseReference(t, data)
	// Every fragment's first attempt fails.
	var faultPlan []faults.Fault
	for i := 0; i < 8; i++ {
		faultPlan = append(faultPlan, faults.Fault{Fragment: i, Kind: faults.Error, Class: exlerr.Fatal})
	}
	e := newGDPEngine(t, data,
		WithDispatchMiddleware(faults.NewInjector(faultPlan...).Middleware()))
	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallbacks != len(rep.Fragments) {
		t.Errorf("Fallbacks = %d, want one per fragment: %+v", rep.Fallbacks, rep.Fragments)
	}
	for _, rel := range []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG"} {
		got, ok := e.Cube(rel)
		if !ok {
			t.Fatalf("cube %s missing", rel)
		}
		if !got.Equal(ref[rel], 1e-6) {
			t.Errorf("%s differs from chase:\n%s", rel, strings.Join(got.Diff(ref[rel], 1e-6, 5), "\n"))
		}
	}
}
