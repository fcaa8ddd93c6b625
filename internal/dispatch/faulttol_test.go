package dispatch

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"exlengine/internal/determine"
	"exlengine/internal/exlerr"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

// failN is middleware failing the first n attempts it sees with the
// given classified error, then passing through.
func failN(n int, class exlerr.Class) Middleware {
	var mu sync.Mutex
	return func(next Runner) Runner {
		return func(ctx context.Context, fr Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
			mu.Lock()
			fire := n > 0
			if fire {
				n--
			}
			mu.Unlock()
			if fire {
				return nil, exlerr.New(class, errors.New("injected"))
			}
			return next(ctx, fr, snap)
		}
	}
}

// panicOnTarget is middleware that panics every attempt on one target.
func panicOnTarget(target ops.Target) Middleware {
	return func(next Runner) Runner {
		return func(ctx context.Context, fr Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
			if fr.Target == target {
				panic("engine crashed")
			}
			return next(ctx, fr, snap)
		}
	}
}

func yearCube(name string, n int) *model.Cube {
	c := model.NewCube(model.NewSchema(name, []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
	for y := 2000; y < 2000+n; y++ {
		_ = c.Put([]model.Value{model.Per(model.NewAnnual(y))}, float64(y-1999))
	}
	return c
}

func simpleFixture(t *testing.T) *fixture {
	t.Helper()
	return setup(t, "cube A(t: year) measure v\nB := A * 2", workload.Data{"A": yearCube("A", 10)})
}

// TestFallbackOnPanic: a panicking target engine is isolated — the panic
// becomes a typed Fatal error, the target is not tried again, and the
// fragment re-routes.
func TestFallbackOnPanic(t *testing.T) {
	f := simpleFixture(t)
	ref := reference(t, f)
	subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(ops.TargetFrame), f.graph)

	d := &Dispatcher{
		Degrade:    true,
		Middleware: []Middleware{panicOnTarget(ops.TargetFrame)},
	}
	got, rep, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got["B"].Equal(ref["B"], 1e-9) {
		t.Error("degraded run differs from chase")
	}
	fr := rep.Fragments[0]
	if len(fr.Attempts) < 2 || !fr.Attempts[0].Panic || fr.Attempts[0].Class != exlerr.Fatal {
		t.Fatalf("panic not recorded: %+v", fr.Attempts)
	}
	if fr.Attempts[1].Target == ops.TargetFrame {
		t.Errorf("panicking target tried twice: %+v", fr.Attempts)
	}
	if !strings.Contains(rep.String(), "degraded from frame") {
		t.Errorf("report rendering lost the degradation:\n%s", rep)
	}
}

// TestEgdViolationNoFallback: an egd violation is a property of the data,
// so the dispatcher fails fast, with no fallback.
func TestEgdViolationNoFallback(t *testing.T) {
	f := simpleFixture(t)
	subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(ops.TargetChase), f.graph)

	d := &Dispatcher{
		Degrade:    true,
		Middleware: []Middleware{failN(1, exlerr.EgdViolation)},
	}
	_, rep, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
	if err == nil {
		t.Fatal("egd violation must fail the run")
	}
	if exlerr.ClassOf(err) != exlerr.EgdViolation {
		t.Errorf("error class = %v", exlerr.ClassOf(err))
	}
	fr := rep.Fragments[0]
	if len(fr.Attempts) != 1 || len(fr.Fallbacks) != 0 {
		t.Errorf("egd violation degraded: %+v", fr)
	}
}

// TestAllTargetsFail: when every permitted target fails, the run errors,
// and the report shows each permitted target tried exactly once, in
// fallback order, the chase last.
func TestAllTargetsFail(t *testing.T) {
	f := simpleFixture(t)
	subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(ops.TargetETL), f.graph)

	d := &Dispatcher{
		Degrade: true,
		Middleware: []Middleware{func(Runner) Runner {
			return func(ctx context.Context, fr Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
				return nil, exlerr.Fatalf("target %s broken", fr.Target)
			}
		}},
	}
	_, rep, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
	if err == nil {
		t.Fatal("run must fail when every target fails")
	}
	fr := rep.Fragments[0]
	if fr.Final != "" {
		t.Errorf("no target succeeded but Final = %s", fr.Final)
	}
	if n := len(fr.Fallbacks); n == 0 || fr.Fallbacks[n-1] != ops.TargetChase {
		t.Errorf("chase must be the last resort: %v", fr.Fallbacks)
	}
	want := append([]ops.Target{ops.TargetETL}, determine.FallbackOrder(subs[0])...)
	var tried []ops.Target
	for _, a := range fr.Attempts {
		tried = append(tried, a.Target)
	}
	if !reflect.DeepEqual(tried, want) {
		t.Errorf("targets tried %v, want each permitted target once: %v", tried, want)
	}
}

// TestCancellation: a run cancelled before it starts, or during an
// attempt, stops without degrading.
func TestCancellation(t *testing.T) {
	f := simpleFixture(t)
	subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(ops.TargetETL), f.graph)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &Dispatcher{Degrade: true}
	_, _, err := d.RunContext(ctx, subs, f.tgds, f.schemas, f.data, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	d.Middleware = []Middleware{func(Runner) Runner {
		return func(ctx context.Context, fr Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
			cancel() // the caller cancels mid-attempt
			<-ctx.Done()
			return nil, ctx.Err()
		}
	}}
	_, rep, err := d.RunContext(ctx, subs, f.tgds, f.schemas, f.data, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-attempt cancellation: err = %v, want context.Canceled", err)
	}
	if fr := rep.Fragments[0]; len(fr.Attempts) != 1 || len(fr.Fallbacks) != 0 {
		t.Errorf("cancelled run degraded: %+v", fr)
	}
}

// TestFragmentTimeoutDegrades: a per-fragment timeout expiring on a slow
// target is a Fatal attempt on that target and degrades instead of
// killing the run.
func TestFragmentTimeoutDegrades(t *testing.T) {
	f := simpleFixture(t)
	ref := reference(t, f)
	subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(ops.TargetETL), f.graph)

	d := &Dispatcher{
		Degrade:         true,
		FragmentTimeout: 20 * time.Millisecond,
		// The primary target stalls past the timeout; fallbacks run free.
		Middleware: []Middleware{func(next Runner) Runner {
			return func(ctx context.Context, fr Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
				if fr.Target == ops.TargetETL {
					<-ctx.Done()
					return nil, ctx.Err()
				}
				return next(ctx, fr, snap)
			}
		}},
	}
	got, rep, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got["B"].Equal(ref["B"], 1e-9) {
		t.Error("degraded run differs from chase")
	}
	fr := rep.Fragments[0]
	if !fr.Degraded() || len(fr.Attempts) != 2 {
		t.Fatalf("timeout should degrade after one etl attempt: %+v", fr)
	}
	if a := fr.Attempts[0]; a.Target != ops.TargetETL || a.Class != exlerr.Fatal || a.Err != context.DeadlineExceeded.Error() {
		t.Errorf("timed-out attempt = %+v, want a fatal etl attempt", a)
	}
}

// TestParallelPanicIsolation: panics inside parallel wave goroutines are
// recovered and degraded per fragment; the whole run still completes.
func TestParallelPanicIsolation(t *testing.T) {
	prog := `
cube A(t: year) measure v
cube B(t: year) measure v
A2 := A * 2
B2 := B * 3
C  := A2 + B2
`
	f := setup(t, prog, workload.Data{"A": yearCube("A", 15), "B": yearCube("B", 15)})
	ref := reference(t, f)

	i := 0
	alternating := func(determine.StmtRef) ops.Target {
		i++
		if i%2 == 0 {
			return ops.TargetSQL
		}
		return ops.TargetFrame
	}
	subs := determine.Partition(f.graph.FullPlan(), alternating, f.graph)
	d := &Dispatcher{
		Degrade:    true,
		Middleware: []Middleware{panicOnTarget(ops.TargetFrame)},
	}
	got, rep, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"A2", "B2", "C"} {
		if !got[rel].Equal(ref[rel], 1e-9) {
			t.Errorf("%s differs after degraded parallel run", rel)
		}
	}
	if rep.Fallbacks() == 0 {
		t.Error("expected at least one fallback from the panicking frame target")
	}
}

// TestZeroValueDispatcherFailsFast: the zero-value dispatcher does not
// degrade — the first error aborts.
func TestZeroValueDispatcherFailsFast(t *testing.T) {
	f := simpleFixture(t)
	subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(ops.TargetETL), f.graph)

	d := &Dispatcher{Middleware: []Middleware{failN(1, exlerr.Fatal)}}
	_, rep, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
	if err == nil {
		t.Fatal("zero-value dispatcher must not degrade")
	}
	if len(rep.Fragments[0].Attempts) != 1 {
		t.Errorf("attempts = %+v", rep.Fragments[0].Attempts)
	}
}
