package dispatch

import (
	"context"
	"strings"
	"testing"

	"exlengine/internal/chase"
	"exlengine/internal/determine"
	"exlengine/internal/exlerr"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

// revisedPlan primes the simple fixture with a full run on target,
// revises one measure of A in place, and returns the plan over A's delta
// and B's previous version.
func revisedPlan(t *testing.T, f *fixture, subs []determine.Subgraph) *chase.Front {
	t.Helper()
	base, _, err := (&Dispatcher{}).RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
	if err != nil {
		t.Fatal(err)
	}
	old := f.data["A"]
	revised := old.Clone()
	tu := old.Tuples()[3]
	if err := revised.Replace(tu.Dims, tu.Measure+0.5); err != nil {
		t.Fatal(err)
	}
	f.data["A"] = revised
	return &chase.Front{
		Deltas: map[string]*model.CubeDelta{"A": model.DiffCubes("A", old, revised)},
		Bases:  map[string]*model.Cube{"B": base["B"]},
	}
}

// TestIncrementalAttemptKeyedByAssignedTarget: the chase applies the
// deltas, but the attempt is the assigned target's — middleware failing
// sql fails a sql fragment's maintaining attempt, the failed attempt and
// its span name sql and not the chase, and the fragment degrades like any
// other.
func TestIncrementalAttemptKeyedByAssignedTarget(t *testing.T) {
	f := simpleFixture(t)
	subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(ops.TargetSQL), f.graph)
	plan := revisedPlan(t, f, subs)
	ref := reference(t, f)

	d := &Dispatcher{
		Degrade: true,
		Middleware: []Middleware{func(next Runner) Runner {
			return func(ctx context.Context, fr Fragment, snap map[string]*model.Cube) (map[string]*model.Cube, error) {
				if fr.Target == ops.TargetSQL {
					return nil, exlerr.Fatalf("sql down")
				}
				return next(ctx, fr, snap)
			}
		}},
	}
	mx, tr := obs.NewRegistry(), obs.NewTracer()
	ctx := obs.ContextWithTracer(obs.ContextWithMetrics(context.Background(), mx), tr)
	got, rep, err := d.RunContext(ctx, subs, f.tgds, f.schemas, f.data, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got["B"].Equal(ref["B"], 0) {
		t.Error("maintained B differs from the chase solution")
	}
	fr := rep.Fragments[0]
	if len(fr.Attempts) != 2 || fr.Attempts[0].Target != ops.TargetSQL || fr.Attempts[0].Err == "" || fr.Attempts[1].Err != "" {
		t.Fatalf("attempts = %+v, want a failed sql attempt and a fallback's success", fr.Attempts)
	}
	if !fr.Degraded() || fr.Mode != ModeMaintained || !fr.Incremental {
		t.Errorf("want the fragment maintained on a fallback target: %+v", fr)
	}
	spans := tr.Roots()[0].FindAll("attempt")
	if len(spans) != 2 || spans[0].Err == "" {
		t.Fatalf("attempt spans = %d, want a failed one and the fallback", len(spans))
	}
	if target, _ := spans[0].Attr("target"); target != string(ops.TargetSQL) {
		t.Errorf("failed maintaining attempt span target = %q, want the assigned sql", target)
	}
	if n := mx.Counter(obs.Label(obs.MetricIncrFragments, "target", string(fr.Final))).Value(); n != 1 {
		t.Errorf("maintained fragments counted for %s = %d, want 1", fr.Final, n)
	}
	if d := plan.Deltas["B"]; d == nil || len(d.Changed) != 1 {
		t.Errorf("front carries %+v for B, want its one changed point", d)
	}
}

// TestIncrementalAttemptSpanSaysMode: the attempt span and the report's
// text rendering say how the fragment was brought up to date, and why
// when a run under a plan was full.
func TestIncrementalAttemptSpanSaysMode(t *testing.T) {
	attempt := func(t *testing.T, plan func(*chase.Front)) (*obs.Span, string) {
		t.Helper()
		f := simpleFixture(t)
		subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(ops.TargetETL), f.graph)
		p := revisedPlan(t, f, subs)
		plan(p)
		tr := obs.NewTracer()
		_, rep, err := (&Dispatcher{}).RunContext(obs.ContextWithTracer(context.Background(), tr), subs, f.tgds, f.schemas, f.data, p)
		if err != nil {
			t.Fatal(err)
		}
		sp := tr.Roots()[0].Find("attempt")
		if sp == nil {
			t.Fatal("no attempt span")
		}
		if target, _ := sp.Attr("target"); target != "etl" {
			t.Errorf("attempt span target = %q, want the assigned etl", target)
		}
		return sp, rep.String()
	}

	sp, text := attempt(t, func(*chase.Front) {})
	if mode, _ := sp.Attr("mode"); mode != ModeMaintained || !strings.Contains(text, "ran on etl (maintained)") {
		t.Errorf("mode = %q, report:\n%s", mode, text)
	}
	if sp.Find("chase.tgd.incr") == nil {
		t.Error("a maintained etl attempt holds no chase.tgd.incr span")
	}

	sp, text = attempt(t, func(p *chase.Front) { p.Deltas = nil })
	if mode, _ := sp.Attr("mode"); mode != ModeReused || !strings.Contains(text, "ran on etl (reused)") {
		t.Errorf("mode = %q, report:\n%s", mode, text)
	}

	const why = "input A changed without a usable delta"
	sp, text = attempt(t, func(p *chase.Front) { p.Deltas, p.FullOnly = nil, map[string]bool{"A": true} })
	mode, _ := sp.Attr("mode")
	reason, _ := sp.Attr("reason")
	if mode != ModeFull || reason != why || !strings.Contains(text, "ran on etl (full: "+why+")") {
		t.Errorf("mode = %q, reason = %q, report:\n%s", mode, reason, text)
	}
	if sp.Find("etl.flow") == nil {
		t.Error("a full etl attempt ran no etl flow")
	}
}
