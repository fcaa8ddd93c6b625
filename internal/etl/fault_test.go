package etl

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"exlengine/internal/exlerr"
	"exlengine/internal/model"
)

// checkNoGoroutineLeak fails the test when the goroutine count does not
// return to (at most) its starting level shortly after the run — the
// leak-checking helper of the fault-tolerance work: a failed flow must
// not leave step goroutines parked on channels.
func checkNoGoroutineLeak(t *testing.T, before int) {
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

// bigYearCube returns a cube of n tuples. Callers make n several times a
// channel's capacity in rows (chanCap batches of batchSize rows), so
// producers must block on channel sends if a consumer dies.
func bigYearCube(name string, n int) *model.Cube {
	c := model.NewCube(model.NewSchema(name, []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
	for y := 0; y < n; y++ {
		_ = c.Put([]model.Value{model.Per(model.NewAnnual(1000 + y))}, float64(y+1))
	}
	return c
}

// TestNoGoroutineLeakOnDownstreamError: the output step fails immediately
// (unknown field) while the input step still has far more rows than the
// channel buffer holds. Without cancellation the producer would block on
// the full channel forever.
func TestNoGoroutineLeakOnDownstreamError(t *testing.T) {
	flow := &Flow{
		TgdID:  "t1",
		Target: "OUT",
		Steps: []Step{
			{Name: "in", Type: TableInput, Table: "A", Fields: []string{"t", "v"}, As: []string{"t", "v"}},
			{Name: "out", Type: TableOutput, Table: "OUT", Fields: []string{"t", "missing"}},
		},
		Hops: []Hop{{From: "in", To: "out"}},
	}
	store := map[string]*model.Cube{"A": bigYearCube("A", 5*chanCap*batchSize)}
	schemas := map[string]model.Schema{
		"OUT": model.NewSchema("OUT", []model.Dim{{Name: "t", Type: model.TYear}}, "v"),
	}
	before := runtime.NumGoroutine()
	_, err := runFlow(context.Background(), flow, store, schemas, nil)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want missing output field", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestNoGoroutineLeakOnStepPanic: a panicking step is recovered into a
// typed error, the flow is cancelled, and no goroutine is left behind —
// previously an unrecovered panic in a step goroutine killed the process.
func TestNoGoroutineLeakOnStepPanic(t *testing.T) {
	m := compile(t, "cube A(t: year) measure v\nB := A + 1")
	job, err := Translate(m, "leak")
	if err != nil {
		t.Fatal(err)
	}
	// Panic in the flow's calculator step, mid-stream.
	SetStepHook(func(flowID, step string) {
		if strings.HasPrefix(step, "calc") {
			panic("step exploded")
		}
	})
	defer SetStepHook(nil)

	before := runtime.NumGoroutine()
	out, err := RunContext(context.Background(), job, m, map[string]*model.Cube{"A": bigYearCube("A", 3*chanCap*batchSize)}, nil)
	if err == nil {
		t.Fatal("panicking step must fail the run")
	}
	if !exlerr.IsPanic(err) {
		t.Errorf("panic not converted to a typed error: %v", err)
	}
	if exlerr.ClassOf(err) != exlerr.Fatal {
		t.Errorf("recovered panic must classify Fatal, got %v", exlerr.ClassOf(err))
	}
	if out != nil {
		t.Error("failed run must not return partial results")
	}
	checkNoGoroutineLeak(t, before)
}

// TestRunNoPartialResultsAfterFailedFlow: when a later flow fails, Run
// returns nil — cubes computed by earlier flows never escape, and the
// source map is untouched.
func TestRunNoPartialResultsAfterFailedFlow(t *testing.T) {
	m := compile(t, "cube A(t: year) measure v\nB := A + 1\nC := B * 2")
	job, err := Translate(m, "partial")
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Flows) < 2 {
		t.Fatalf("want at least two flows, got %d", len(job.Flows))
	}
	// Fail the last flow's output step.
	last := job.Flows[len(job.Flows)-1]
	SetStepHook(func(flowID, step string) {
		if flowID == last.TgdID && strings.HasPrefix(step, "out") {
			panic("late failure")
		}
	})
	defer SetStepHook(nil)

	source := map[string]*model.Cube{"A": bigYearCube("A", 50)}
	out, err := RunContext(context.Background(), job, m, source, nil)
	if err == nil {
		t.Fatal("run must fail")
	}
	if out != nil {
		t.Errorf("failed run leaked partial results: %v", out)
	}
	if len(source) != 1 || source["A"] == nil {
		t.Errorf("source map mutated: %v", source)
	}
}

// TestRunContextCancellation: cancelling the context mid-run aborts the
// streaming goroutines promptly and leaks none of them.
func TestRunContextCancellation(t *testing.T) {
	m := compile(t, "cube A(t: year) measure v\nB := A + 1")
	job, err := Translate(m, "cancel")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel as soon as the first step starts.
	var once sync.Once
	SetStepHook(func(flowID, step string) { once.Do(cancel) })
	defer SetStepHook(nil)

	before := runtime.NumGoroutine()
	_, err = RunContext(ctx, job, m, map[string]*model.Cube{"A": bigYearCube("A", 5*chanCap*batchSize)}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestRunStillCorrectWithHookInstalled: a pass-through hook must not
// change results.
func TestRunStillCorrectWithHookInstalled(t *testing.T) {
	m := compile(t, "cube A(t: year) measure v\nB := A + 1")
	job, err := Translate(m, "hook")
	if err != nil {
		t.Fatal(err)
	}
	var calls int64
	var mu sync.Mutex
	SetStepHook(func(flowID, step string) { mu.Lock(); calls++; mu.Unlock() })
	defer SetStepHook(nil)

	out, err := RunContext(context.Background(), job, m, map[string]*model.Cube{"A": bigYearCube("A", 10)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["B"] == nil || out["B"].Len() != 10 {
		t.Errorf("unexpected result: %v", out)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Error("hook never invoked")
	}
}
