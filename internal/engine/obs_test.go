package engine

import (
	"context"
	"testing"
	"time"

	"exlengine/internal/exlerr"
	"exlengine/internal/faults"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

// counterSum adds up a per-target labelled counter across all targets.
func counterSum(m *obs.Registry, name string) int64 {
	var total int64
	for _, t := range ops.AllTargets {
		total += m.Counter(obs.Label(name, "target", string(t))).Value()
	}
	return total
}

// TestTracedRunSpanTree asserts the span nesting the observability layer
// promises: run → determine/dispatch/persist, dispatch → fragment →
// attempt, and target-engine internals under the attempt that ran them.
func TestTracedRunSpanTree(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 100, Regions: 2})
	tracer := obs.NewTracer()
	e := newGDPEngine(t, data, WithTracer(tracer))

	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	roots := tracer.Roots()
	// RegisterProgram traced a compile root before the run root.
	var compile, run *obs.Span
	for _, r := range roots {
		switch r.Name {
		case "compile":
			compile = r
		case "run":
			run = r
		}
	}
	if compile == nil {
		t.Fatalf("no compile root; roots: %v", names(roots))
	}
	for _, phase := range []string{"parse", "analyze", "generate", "graph"} {
		if compile.Find(phase) == nil {
			t.Errorf("compile has no %s child", phase)
		}
	}
	// Every engine compiles its own programs: a second engine in the same
	// process, registering the same program, traces its own pipeline.
	tracer2 := obs.NewTracer()
	newGDPEngine(t, data, WithTracer(tracer2))
	roots2 := tracer2.Roots()
	if len(roots2) != 1 || roots2[0].Name != "compile" {
		t.Fatalf("second engine's roots: %v, want one compile", names(roots2))
	}
	for _, phase := range []string{"parse", "analyze", "generate"} {
		if roots2[0].Find(phase) == nil {
			t.Errorf("second engine's compile has no %s child", phase)
		}
	}
	if run == nil {
		t.Fatalf("no run root; roots: %v", names(roots))
	}
	for _, phase := range []string{"determine", "dispatch", "persist"} {
		if run.Find(phase) == nil {
			t.Errorf("run has no %s span", phase)
		}
	}

	dispatchSpan := run.Find("dispatch")
	fragments := dispatchSpan.FindAll("fragment")
	if len(fragments) == 0 {
		t.Fatal("dispatch has no fragment spans")
	}
	sawTargetInternal := false
	for _, fr := range fragments {
		if fr.Parent() != dispatchSpan {
			t.Errorf("fragment %d not nested under dispatch", fr.ID)
		}
		cubes, _ := fr.Attr("cubes")
		attempts := fr.FindAll("attempt")
		if len(attempts) == 0 {
			t.Errorf("fragment %s has no attempt spans", cubes)
			continue
		}
		for _, a := range attempts {
			for _, inner := range []string{"chase.tgd", "sql.stmt", "etl.flow", "frame.program"} {
				if a.Find(inner) != nil {
					sawTargetInternal = true
				}
			}
		}
		if _, ok := fr.Attr("final"); !ok {
			t.Errorf("successful fragment %s has no final attr", cubes)
		}
	}
	if !sawTargetInternal {
		t.Error("no target-engine span nests under any attempt")
	}
	// The SQL engine's own spans hang below the statement that ran them.
	stmts := dispatchSpan.FindAll("sql.stmt")
	if len(stmts) == 0 {
		t.Fatal("the GDP run executed no SQL statement")
	}
	for _, st := range stmts {
		if st.Find("sql.exec") == nil {
			t.Errorf("sql.stmt %d has no sql.exec span beneath it", st.ID)
		}
	}

	// Every span ended: durations are set, and the traced run left no
	// span open.
	for _, r := range roots {
		assertEnded(t, r)
	}
}

func names(spans []*obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

func assertEnded(t *testing.T, s *obs.Span) {
	t.Helper()
	if s.Dur < 0 {
		t.Errorf("span %s has negative duration", s.Name)
	}
	for _, c := range s.Children() {
		assertEnded(t, c)
	}
}

// TestMetricsAgreeWithReport injects the acceptance faults (a fatal SQL
// error and an ETL panic) and checks that the metrics registry and the
// run's FragmentReport tell the same story: same fallback count, same
// panic count, one fragment counter per completed fragment, one attempt
// span per target tried.
func TestMetricsAgreeWithReport(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 2})

	restore := faults.PanicETLStep("")
	defer restore()
	inj := faults.NewInjector(faults.Fault{
		Fragment: faults.AnyFragment, Target: ops.TargetSQL, Kind: faults.Error, Class: exlerr.Fatal,
	})

	metrics := obs.NewRegistry()
	tracer := obs.NewTracer()
	e := newGDPEngine(t, data,
		WithMetrics(metrics),
		WithTracer(tracer),
		WithDispatchMiddleware(inj.Middleware()))

	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("run must survive both faults: %v", err)
	}

	if got := metrics.Counter(obs.MetricRuns).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricRuns, got)
	}
	if got := metrics.Counter(obs.MetricRunErrors).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", obs.MetricRunErrors, got)
	}
	if got := counterSum(metrics, obs.MetricFallbacks); rep.Fallbacks == 0 || got != int64(rep.Fallbacks) {
		t.Errorf("fallback counter = %d, report says %d", got, rep.Fallbacks)
	}
	if got := counterSum(metrics, obs.MetricFragments); got != int64(len(rep.Fragments)) {
		t.Errorf("fragment counter = %d, report has %d fragments", got, len(rep.Fragments))
	}
	var panics int
	for _, fr := range rep.Fragments {
		for _, at := range fr.Attempts {
			if at.Panic {
				panics++
			}
		}
	}
	if got := metrics.Counter(obs.MetricPanics).Value(); got != int64(panics) {
		t.Errorf("panic counter = %d, report records %d panics", got, panics)
	}

	// Per-fragment success counters split by final target.
	perTarget := make(map[ops.Target]int64)
	for _, fr := range rep.Fragments {
		perTarget[fr.Final]++
	}
	for target, want := range perTarget {
		got := metrics.Counter(obs.Label(obs.MetricFragments, "target", string(target))).Value()
		if got != want {
			t.Errorf("fragment counter for %s = %d, report says %d", target, got, want)
		}
	}

	// The trace shows the fault handling too: one attempt span per target
	// tried, the failed ones before their fallbacks.
	var run *obs.Span
	for _, r := range tracer.Roots() {
		if r.Name == "run" {
			run = r
		}
	}
	if run == nil {
		t.Fatal("no run root")
	}
	attempts := run.FindAll("attempt")
	if want := len(rep.Fragments) + rep.Fallbacks; len(attempts) != want {
		t.Errorf("attempt spans = %d, want one per target tried: %d", len(attempts), want)
	}
	failed := 0
	for _, a := range attempts {
		if a.Err != "" {
			failed++
		}
	}
	if failed != rep.Fallbacks {
		t.Errorf("%d attempt spans record an error, want one per fallback: %d", failed, rep.Fallbacks)
	}
}

// TestMetricsAgreeWithReportIncremental: incremental runs account for
// their targets like full ones. After a priming run and a delta-driven
// one, every fragment of either report has one latency observation on
// the target it finished on, that target counts the tuples of the cubes
// the fragment produced as written, and it has read some.
func TestMetricsAgreeWithReportIncremental(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 2})
	metrics := obs.NewRegistry()
	e := newGDPEngine(t, data, WithMetrics(metrics))
	ctx := context.Background()
	t0 := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

	fragments := make(map[ops.Target]int64)
	written := make(map[ops.Target]int64)
	account := func(rep *Report) {
		t.Helper()
		if !rep.Incremental {
			t.Fatalf("run was not incremental: %+v", rep)
		}
		for _, fr := range rep.Fragments {
			fragments[fr.Final]++
			for _, name := range fr.Cubes {
				c, ok := e.Cube(name)
				if !ok {
					t.Fatalf("produced cube %s not stored", name)
				}
				written[fr.Final] += int64(c.Len())
			}
		}
	}
	rep, err := e.Run(ctx, RunAt(t0), WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	account(rep)
	t1 := t0.Add(24 * time.Hour)
	if err := e.PutCube(churn(t, data["PDR"], false), t1); err != nil {
		t.Fatal(err)
	}
	if rep, err = e.Run(ctx, RunAt(t1), WithIncremental()); err != nil {
		t.Fatal(err)
	}
	account(rep)

	if len(fragments) == 0 {
		t.Fatal("no fragment ran")
	}
	for target, n := range fragments {
		label := func(name string) string { return obs.Label(name, "target", string(target)) }
		if got := metrics.Histogram(label(obs.MetricTargetLatency)).Count(); got != n {
			t.Errorf("%s latency observations = %d, reports have %d fragments", target, got, n)
		}
		if got := metrics.Counter(label(obs.MetricTuplesWritten)).Value(); got != written[target] {
			t.Errorf("%s tuples written = %d, produced cubes hold %d", target, got, written[target])
		}
		if got := metrics.Counter(label(obs.MetricTuplesRead)).Value(); got <= 0 {
			t.Errorf("%s tuples read = %d, want > 0", target, got)
		}
	}
}

// TestTracedParallelDispatchRace exercises the tracer and the metrics
// registry under wave-parallel dispatch; meaningful under -race.
func TestTracedParallelDispatchRace(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 120, Regions: 2})
	tracer := obs.NewTracer()
	metrics := obs.NewRegistry()
	e := newGDPEngine(t, data,
		WithTracer(tracer), WithMetrics(metrics))

	for i := 0; i < 3; i++ {
		if _, err := e.Run(context.Background(), RunAt(time.Unix(int64(i+1), 0))); err != nil {
			t.Fatal(err)
		}
	}
	if got := metrics.Counter(obs.MetricRuns).Value(); got != 3 {
		t.Errorf("runs counter = %d, want 3", got)
	}
}

// TestRunOptionEquivalence checks that the unified Run API is
// deterministic across engines and that its options compose.
func TestRunOptionEquivalence(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 100, Regions: 2})
	t0 := time.Unix(10, 0)

	oldE := newGDPEngine(t, data)
	if _, err := oldE.Run(context.Background(), RunAt(t0)); err != nil {
		t.Fatal(err)
	}
	newE := newGDPEngine(t, data)
	if _, err := newE.Run(context.Background(), RunAt(t0)); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG"} {
		a, ok := oldE.Cube(rel)
		if !ok {
			t.Fatalf("first engine: cube %s missing", rel)
		}
		b, ok := newE.Cube(rel)
		if !ok {
			t.Fatalf("second engine: cube %s missing", rel)
		}
		if !a.Equal(b, 0) {
			t.Errorf("%s differs between two identical Run(RunAt) calls", rel)
		}
	}

	// RunOn pins the target the way RunAllOn did.
	onE := newGDPEngine(t, data)
	rep, err := onE.Run(context.Background(), RunOn(ops.TargetChase))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Subgraphs {
		if s.Target != ops.TargetChase {
			t.Errorf("RunOn(chase) dispatched to %s", s.Target)
		}
	}

	// RunChanged narrows the plan the way Recalculate did.
	chE := newGDPEngine(t, data)
	if _, err := chE.Run(context.Background(), RunAt(time.Unix(19, 0))); err != nil {
		t.Fatal(err)
	}
	rep, err = chE.Run(context.Background(), RunChanged("RGDPPC"), RunAt(time.Unix(20, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plan) == 0 || len(rep.Plan) >= 5 {
		t.Errorf("RunChanged(RGDPPC) plan = %v, want a proper subset", rep.Plan)
	}
}

// TestRunTracedAndMetered checks the per-call sinks: a tracer and a
// metrics registry carried by the run's context record that run instead of
// the engine's own, and the engine's record the runs whose context carries
// none.
func TestRunTracedAndMetered(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 50, Regions: 1})
	engTracer := obs.NewTracer()
	engMetrics := obs.NewRegistry()
	e := newGDPEngine(t, data, WithTracer(engTracer), WithMetrics(engMetrics))

	callTracer := obs.NewTracer()
	callMetrics := obs.NewRegistry()
	ctx := obs.ContextWithMetrics(obs.ContextWithTracer(context.Background(), callTracer), callMetrics)
	if _, err := e.Run(ctx, RunAt(time.Unix(1, 0))); err != nil {
		t.Fatal(err)
	}
	var runRoots int
	for _, r := range callTracer.Roots() {
		if r.Name == "run" {
			runRoots++
		}
	}
	if runRoots != 1 {
		t.Errorf("per-call tracer has %d run roots, want 1", runRoots)
	}
	for _, r := range engTracer.Roots() {
		if r.Name == "run" {
			t.Error("engine tracer recorded the run its context traced")
		}
	}
	if got := callMetrics.Counter(obs.MetricRuns).Value(); got != 1 {
		t.Errorf("per-call metrics runs = %d, want 1", got)
	}
	if got := engMetrics.Counter(obs.MetricRuns).Value(); got != 0 {
		t.Errorf("engine metrics runs = %d, want 0", got)
	}

	// A context without sinks leaves the run to the engine's own.
	if _, err := e.Run(context.Background(), RunAt(time.Unix(2, 0))); err != nil {
		t.Fatal(err)
	}
	runRoots = 0
	for _, r := range engTracer.Roots() {
		if r.Name == "run" {
			runRoots++
		}
	}
	if runRoots != 1 || engMetrics.Counter(obs.MetricRuns).Value() != 1 || callMetrics.Counter(obs.MetricRuns).Value() != 1 {
		t.Errorf("a run without per-call sinks: engine tracer %d run roots, engine runs %d, per-call runs %d; want 1, 1, 1",
			runRoots, engMetrics.Counter(obs.MetricRuns).Value(), callMetrics.Counter(obs.MetricRuns).Value())
	}
}
