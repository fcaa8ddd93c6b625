package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"exlengine/internal/obs"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesHarness holds BENCHMARK.json to the limits of the
// benchmark contract and to the metric lists the harness emits.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not letters, digits, _ . - (at most 64)", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, harness runs %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	checkDefs := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics declared, harness emits %d", len(got), kind, len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s metric %d is %s [%s], harness emits %s [%s]", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is not letters, digits, _ / %% . - (at most 16)", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	checkDefs("end-to-end", spec.EndToEnd, endToEndDefs, true)
	checkDefs("per-layer", spec.PerLayer, perLayerDefs, false)
	var setup *specMetric
	for i := range spec.EndToEnd {
		if spec.EndToEnd[i].Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s [s, lower is better] must be an end-to-end metric; have %+v", setup)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

func smokeBench(t *testing.T) *bench {
	return &bench{seed: 7, sz: smokeSizing, tmp: filepath.Join(t.TempDir(), "tmp"), log: io.Discard}
}

// isCount says whether a metric counts something the program does, which
// must repeat exactly from run to run, and is not a time or a share of one.
func isCount(name string) bool {
	for _, suffix := range []string{"_tuples", "_bytes", ".tgds", ".plan_cubes", ".subgraphs", ".skipped_cubes",
		".fragments", ".retries", ".fallbacks", ".rows_loaded", ".rows_extracted", ".batches", ".op_rows",
		".tuples_out", ".compactions", ".write_calls", ".fsyncs", ".spans_per_op", ".overload", ".errors", ".shed"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// TestSmokeRun runs all four workloads, both passes, under the smoke sizing,
// twice with one seed: every declared metric comes out once per workload,
// finite and with its unit, and the counts of the two runs are identical.
func TestSmokeRun(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	runAll := func() map[string]map[string]metricValue {
		b := smokeBench(t)
		out := map[string]map[string]metricValue{}
		var traces []tracedEpoch
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := b.runWorkload(w, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("%s: correct=%v attempted=%d failed=%d %v", w.name, res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				declared := spec.EndToEnd
				if traced {
					declared = spec.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%s: %d metrics emitted, %d declared", w.name, len(res.Metrics), len(declared))
				}
				for _, d := range declared {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("%s: %s is declared and not emitted", w.name, d.Name)
						continue
					}
					if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: %s = %v [%s], want a finite value in %s", w.name, d.Name, v.Value, v.Unit, d.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.Name, v.Value)
					}
				}
				key := w.name
				if traced {
					key += "/traced"
					traces = append(traces, res.tracers...)
				}
				out[key] = res.Metrics
			}
		}
		checkTrace(t, traces)
		return out
	}
	first, second := runAll(), runAll()
	for key, metrics := range first {
		for name, v := range metrics {
			if isCount(name) && second[key][name].Value != v.Value {
				t.Errorf("%s: count %s differs between two runs of one seed: %v, then %v", key, name, v.Value, second[key][name].Value)
			}
		}
	}
	// The workloads must reach the layers they are here for.
	for key, names := range map[string][]string{
		"gdp-full-mem/traced":       {"sqlengine.rows_loaded", "etl.flow_ms", "frame.program_ms", "target.chase_ms", "sqlengine.op_rows"},
		"panel-full-chase/traced":   {"chase.solve_ms", "chase.tuples_out", "chase.full_scaling_exp"},
		"panel-incr-durable/traced": {"chase.incr_ms", "chase.incr_delta_tuples", "durable.fsyncs", "durable.write_amp", "durable.recover_ms", "store.delta_tuples"},
		"serve-mixed/traced":        {"server.run_p50_ms", "server.csv_in_bytes", "durable.write_bytes", "store.csv_read_ms"},
	} {
		for _, name := range names {
			if first[key][name].Value <= 0 {
				t.Errorf("%s: %s is %v; the workload does not exercise its layer", key, name, first[key][name].Value)
			}
		}
	}
}

// checkTrace writes the spans out and reads the lines back.
func checkTrace(t *testing.T, traces []tracedEpoch) {
	t.Helper()
	var buf bytes.Buffer
	if err := writeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{} // span ids are unique within one epoch's tracer
	names := map[string]bool{}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, l := range lines {
		var s spanLine
		if err := json.Unmarshal([]byte(l), &s); err != nil {
			t.Fatalf("trace line %q: %v", l, err)
		}
		if s.Name == "" || s.Workload == "" || s.EndUS < s.StartUS {
			t.Fatalf("trace line %q lacks a name, a workload or an order of start and end", l)
		}
		key := func(id int64) string { return fmt.Sprintf("%s/%d/%d", s.Workload, s.Epoch, id) }
		if s.Parent != 0 && !ids[key(s.Parent)] {
			t.Fatalf("trace line %q names a parent not written before it", l)
		}
		if s.Name == "op.run" && s.Step == nil {
			t.Fatalf("trace line %q is under an op and carries no step", l)
		}
		ids[key(s.ID)] = true
		names[s.Name] = true
	}
	for _, want := range []string{"op", "op.put", "op.run", "run", "determine", "dispatch", "fragment", "attempt",
		"persist", "compile", "chase.tgd", "chase.tgd.incr", "sql.stmt", "etl.flow", "frame.program", "http.put", "http.run", "http.get"} {
		if !names[want] {
			t.Errorf("no %q span among %d trace lines", want, len(lines))
		}
	}
}

// TestCorruptReferenceFails shows the verification has teeth: with one
// measure of the reference changed, every op of every epoch fails.
func TestCorruptReferenceFails(t *testing.T) {
	for _, name := range []string{"panel-full-chase", "serve-mixed"} {
		b := smokeBench(t)
		b.corrupt = true
		res, err := b.runWorkload(findWorkload(name), false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != res.Attempted || len(res.Errors) == 0 {
			t.Errorf("%s: correct=%v failed=%d of %d with a corrupted reference", name, res.Correct, res.Failed, res.Attempted)
		}
		if code := printSummary([]*runResult{res}); code == 0 {
			t.Errorf("%s: exit code 0 with a corrupted reference", name)
		}
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
}

// TestSelfTimeOverlappingChildren: children that run at the same time, as
// the steps of an ETL flow do, are subtracted once.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	ticks := []int{0, 10, 20, 40, 50, 60, 65, 100} // ms at each clock read
	tr := obs.NewTracer()
	tr.Now = func() time.Time {
		at := base.Add(time.Duration(ticks[0]) * time.Millisecond)
		ticks = ticks[1:]
		return at
	}
	ctx := obs.ContextWithTracer(context.Background(), tr)
	pctx, parent := obs.StartSpan(ctx, "etl.flow") // 0
	_, a := obs.StartSpan(pctx, "etl.step")        // 10
	_, b := obs.StartSpan(pctx, "etl.step")        // 20
	a.End()                                        // 40
	b.End()                                        // 50
	_, c := obs.StartSpan(pctx, "etl.step")        // 60
	c.End()                                        // 65
	parent.End()                                   // 100
	// Children cover [10,50] and [60,65]: 45 ms of 100.
	if got := selfTime(parent); got != 55*time.Millisecond {
		t.Errorf("self time %v, want 55ms", got)
	}
	if got := selfTime(c); got != 5*time.Millisecond {
		t.Errorf("self time of a leaf %v, want its duration 5ms", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{3, 1, 2, 10, 9, 8, 7, 6, 5, 4}
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if got := spread(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	wide := []float64{60, 100, 140, 80, 120, 100}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"within the bound", steady(100), steady(104), true, "same"},
		{"slower", steady(100), steady(115), true, "worse"},
		{"faster", steady(100), steady(85), true, "better"},
		{"less throughput", steady(100), steady(85), false, "worse"},
		{"more throughput", steady(100), steady(115), false, "better"},
		{"spread wider than the bound", wide, steady(150), true, "unresolved"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareFiles: a result file round-trips, equal files compare clean,
// and a slower second file is reported and fails the comparison.
func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	b := smokeBench(t)
	mkRun := func(workload string, scale float64) *runResult {
		m := map[string]metricValue{}
		for _, d := range endToEndDefs {
			v := 100.0
			if d.Name == "op_p50_ms" {
				v *= scale
			}
			m[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
		return &runResult{Workload: workload, Correct: true, Attempted: 10, Metrics: m}
	}
	write := func(name string, scale float64) string {
		path := filepath.Join(t.TempDir(), name)
		for i := 0; i < 2; i++ { // two invocations append to one file
			var runs []*runResult
			for _, w := range workloads {
				runs = append(runs, mkRun(w.name, scale))
			}
			if err := b.writeResults(path, runs); err != nil {
				t.Fatal(err)
			}
		}
		rf, err := readResultFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rf.Runs) != 2*len(workloads) || rf.Comparable || rf.Claim != nil || rf.GoVersion == "" || rf.Seed != b.seed {
			t.Fatalf("result file did not round-trip: %+v", rf)
		}
		return path
	}
	a, same, slow := write("a.json", 1), write("same.json", 1), write("slow.json", 1.5)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, a, same, spec); err != nil || regressed {
		t.Errorf("equal files: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err := compareFiles(&out, a, slow, spec)
	if err != nil || !regressed || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower file: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloads)*(len(endToEndDefs)+1) {
		t.Errorf("%d rows, want a header and one row per workload and metric, fail_share included", rows)
	}
}
