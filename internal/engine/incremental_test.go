package engine

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"exlengine/internal/dispatch"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/store"
	"exlengine/internal/workload"
)

var gdpDerived = []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG"}

// churn returns a new version of c with roughly 1% of its points
// value-changed, a few deleted, and (optionally) a few appended at the
// end of the series.
func churn(t *testing.T, c *model.Cube, deletes bool) *model.Cube {
	t.Helper()
	out := c.Clone()
	for i, tu := range c.Tuples() {
		switch {
		case i%97 == 13:
			if err := out.Replace(tu.Dims, tu.Measure*1.01+0.01); err != nil {
				t.Fatal(err)
			}
		case deletes && i%131 == 57:
			out.Delete(tu.Dims)
		}
	}
	return out
}

func exactEqual(t *testing.T, name string, want, got *model.Cube) {
	t.Helper()
	if d := model.DiffCubes(name, want, got); !d.Empty() {
		t.Errorf("cube %s: incremental diverges from full (%d added, %d changed, %d deleted)",
			name, len(d.Added), len(d.Changed), len(d.Deleted))
	}
}

// TestWithIncrementalParity runs the same data sequence through a
// full-recomputation engine and an incremental one and requires
// byte-identical derived cubes after every step.
func TestWithIncrementalParity(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 3, Seed: 9})
	full := newGDPEngine(t, data)
	incr := newGDPEngine(t, data)
	ctx := context.Background()
	t0 := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

	if _, err := full.Run(ctx, RunAt(t0)); err != nil {
		t.Fatal(err)
	}
	rep, err := incr.Run(ctx, RunAt(t0), WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Incremental {
		t.Fatalf("in-memory store must support incremental runs: %+v", rep)
	}
	for _, rel := range gdpDerived {
		w, _ := full.Cube(rel)
		g, _ := incr.Cube(rel)
		exactEqual(t, rel, w, g)
	}

	// 1% churn on one leaf, including deletions.
	t1 := t0.Add(24 * time.Hour)
	next := churn(t, data["PDR"], true)
	if err := full.PutCube(next, t1); err != nil {
		t.Fatal(err)
	}
	if err := incr.PutCube(next.Clone(), t1); err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(ctx, RunAt(t1)); err != nil {
		t.Fatal(err)
	}
	rep, err = incr.Run(ctx, RunAt(t1), WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Incremental {
		t.Fatalf("second run not incremental: %+v", rep)
	}
	for _, rel := range gdpDerived {
		w, _ := full.Cube(rel)
		g, _ := incr.Cube(rel)
		exactEqual(t, rel, w, g)
	}
}

// TestWithIncrementalSkipsCurrentCubes: a run with nothing changed
// recomputes nothing at all.
func TestWithIncrementalSkipsCurrentCubes(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 120, Regions: 2, Seed: 3})
	e := newGDPEngine(t, data)
	ctx := context.Background()
	if _, err := e.Run(ctx, WithIncremental()); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(ctx, WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plan) != 0 || len(rep.Skipped) != len(gdpDerived) {
		t.Errorf("no-change incremental run: plan=%v skipped=%v", rep.Plan, rep.Skipped)
	}
	if len(rep.Fragments) != 0 {
		t.Errorf("no-change run dispatched %d fragments", len(rep.Fragments))
	}
}

const chainProgram = `
cube A(q: quarter) measure v

B := A * 2
C := B + A
`

func quarterCube(t *testing.T, n int) *model.Cube {
	t.Helper()
	sch := model.NewSchema("A", []model.Dim{{Name: "q", Type: model.TQuarter}}, "v")
	c := model.NewCube(sch)
	start := model.NewQuarterly(2018, 1)
	for i := 0; i < n; i++ {
		if err := c.Put([]model.Value{model.Per(start.Shift(int64(i)))}, float64(i)*1.25+3); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func newChainEngine(t *testing.T, a *model.Cube) *Engine {
	t.Helper()
	e := New()
	if err := e.RegisterProgram("chain", chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := e.PutCube(a, time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWithIncrementalFragmentFlags: a tuple-level chase fragment with a
// churned input is maintained incrementally, while a black-box fragment
// (GDP's stl_t) falls back full with a recorded reason.
func TestWithIncrementalFragmentFlags(t *testing.T) {
	ctx := context.Background()
	a := quarterCube(t, 40)
	e := newChainEngine(t, a)
	if _, err := e.Run(ctx, RunOn(ops.TargetChase)); err != nil {
		t.Fatal(err)
	}
	if err := e.PutCube(churn(t, a, false), time.Now()); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(ctx, RunOn(ops.TargetChase), WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fragments) == 0 {
		t.Fatalf("nothing dispatched: %+v", rep)
	}
	for _, fr := range rep.Fragments {
		if !fr.Incremental || fr.FellBackFull {
			t.Errorf("tuple-level fragment %v not maintained incrementally: %+v", fr.Cubes, fr)
		}
	}

	// The GDP program's stl_t black box cannot be maintained: its
	// fragment recomputes in full and says why.
	data := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 2, Seed: 5})
	g := newGDPEngine(t, data)
	if _, err := g.Run(ctx, RunOn(ops.TargetChase)); err != nil {
		t.Fatal(err)
	}
	if err := g.PutCube(churn(t, data["PDR"], false), time.Now()); err != nil {
		t.Fatal(err)
	}
	grep, err := g.Run(ctx, RunOn(ops.TargetChase), WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	fellBack := 0
	for _, fr := range grep.Fragments {
		if fr.FellBackFull {
			fellBack++
			if fr.FallbackReason == "" {
				t.Errorf("fragment %v fell back without a reason", fr.Cubes)
			}
		}
	}
	if fellBack == 0 {
		t.Errorf("the stl_t black box must force a full fragment: %+v", grep.Fragments)
	}
}

// TestWithIncrementalSQLInsertDelta: an insert-only revision under a
// tuple-level mapping assigned to SQL is maintained — by the chase, as
// every delta is — and lands byte-identical to the full SQL refresh.
func TestWithIncrementalSQLInsertDelta(t *testing.T) {
	ctx := context.Background()
	a := quarterCube(t, 40)
	grown := quarterCube(t, 44) // strict superset: 4 appended quarters

	full := newChainEngine(t, a)
	incr := newChainEngine(t, a)
	t0 := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	if _, err := full.Run(ctx, RunOn(ops.TargetSQL), RunAt(t0)); err != nil {
		t.Fatal(err)
	}
	if _, err := incr.Run(ctx, RunOn(ops.TargetSQL), RunAt(t0), WithIncremental()); err != nil {
		t.Fatal(err)
	}

	t1 := t0.Add(24 * time.Hour)
	if err := full.PutCube(grown, t1); err != nil {
		t.Fatal(err)
	}
	if err := incr.PutCube(grown.Clone(), t1); err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(ctx, RunOn(ops.TargetSQL), RunAt(t1)); err != nil {
		t.Fatal(err)
	}
	rep, err := incr.Run(ctx, RunOn(ops.TargetSQL), RunAt(t1), WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range rep.Fragments {
		if fr.Final != ops.TargetSQL || !fr.Incremental || fr.FellBackFull || fr.FallbackReason != "" {
			t.Errorf("SQL fragment %v not maintained from the insert-only delta: %+v", fr.Cubes, fr)
		}
	}
	for _, rel := range []string{"B", "C"} {
		w, _ := full.Cube(rel)
		g, _ := incr.Cube(rel)
		exactEqual(t, rel, w, g)
	}
}

// TestFallbackReasonNamesTheCause: under preferred targets a
// measure-changing revision of PDR is maintained through GDP's
// aggregations on SQL and ETL alike; the fragment holding the stl_t black
// box names the tgd the chase recomputed; and a derived cube overwritten
// from outside is named as the relation without a previous version.
func TestFallbackReasonNamesTheCause(t *testing.T) {
	ctx := context.Background()
	data := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 2, Seed: 5})
	e := newGDPEngine(t, data)
	if _, err := e.Run(ctx, WithIncremental()); err != nil {
		t.Fatal(err)
	}
	fragmentOf := func(rep *Report, cube string) dispatch.FragmentReport {
		t.Helper()
		for _, fr := range rep.Fragments {
			if len(fr.Cubes) == 1 && fr.Cubes[0] == cube {
				return fr
			}
		}
		t.Fatalf("no fragment produced %s alone: %+v", cube, rep.Fragments)
		return dispatch.FragmentReport{}
	}

	revised := churn(t, data["PDR"], false)
	if err := e.PutCube(revised, time.Now()); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(ctx, WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	for _, cube := range []string{"PQR", "RGDP", "GDP", "PCHNG"} {
		fr := fragmentOf(rep, cube)
		if fr.Final == ops.TargetChase || fr.Mode != dispatch.ModeMaintained || !fr.Incremental || fr.FallbackReason != "" {
			t.Errorf("%s: want the %s fragment maintained from the delta: %+v", cube, fr.Primary, fr)
		}
	}
	fr := fragmentOf(rep, "GDPT")
	if want := "1 of 1 tgds recomputed in full: GDPT (blackbox)"; !fr.FellBackFull || fr.FallbackReason != want {
		t.Errorf("GDPT: reason %q, want %q: %+v", fr.FallbackReason, want, fr)
	}

	// GDP overwritten from outside is no base: it runs in full, and with
	// nothing to diff the result against its consumer sees it move
	// without a delta.
	gdp, _ := e.Cube("GDP")
	if err := e.PutCube(churn(t, gdp, true), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := e.PutCube(churn(t, revised, true), time.Now()); err != nil {
		t.Fatal(err)
	}
	if rep, err = e.Run(ctx, WithIncremental()); err != nil {
		t.Fatal(err)
	}
	fr = fragmentOf(rep, "GDP")
	if want := "no previous version of GDP to maintain"; !fr.FellBackFull || fr.FallbackReason != want {
		t.Errorf("GDP: reason %q, want %q: %+v", fr.FallbackReason, want, fr)
	}
	fr = fragmentOf(rep, "GDPT")
	if want := "input GDP changed without a usable delta"; !fr.FellBackFull || fr.FallbackReason != want {
		t.Errorf("GDPT: reason %q, want %q: %+v", fr.FallbackReason, want, fr)
	}
	if fr := fragmentOf(rep, "PQR"); !fr.Incremental {
		t.Errorf("PQR has its base and must stay maintained: %+v", fr)
	}
}

// TestWithIncrementalExternalWriteInvalidatesMemo: a cube version
// written outside the run machinery is not trusted as a maintenance
// base — the next incremental run recomputes it and converges on the
// same values as a full run.
func TestWithIncrementalExternalWriteInvalidatesMemo(t *testing.T) {
	data := workload.GDPSource(workload.GDPConfig{Days: 120, Regions: 2, Seed: 7})
	e := newGDPEngine(t, data)
	ctx := context.Background()
	if _, err := e.Run(ctx, WithIncremental()); err != nil {
		t.Fatal(err)
	}
	want, _ := e.Cube("GDP")

	// Clobber GDP with a foreign version.
	junk := churn(t, want, true)
	if err := e.PutCube(junk, time.Now()); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(ctx, WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	for _, skipped := range rep.Skipped {
		if skipped == "GDP" {
			t.Fatalf("externally written GDP must not be skipped: %+v", rep)
		}
	}
	got, _ := e.Cube("GDP")
	exactEqual(t, "GDP", want, got)
}

// TestIdenticalRePutReusesEveryOutput pins the reuse rule: an elementary
// cube put again unchanged moves no input, so every fragment reuses its
// previous outputs and no derived cube gets a new version; the reused
// versions keep their provenance, and the incremental run after a real
// revision still lands on what a full run computes.
func TestIdenticalRePutReusesEveryOutput(t *testing.T) {
	ctx := context.Background()
	data := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 2, Seed: 11})
	st := store.New()
	incr := newGDPEngine(t, data, WithStore(st))
	full := newGDPEngine(t, data)
	t0 := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	for _, e := range []*Engine{incr, full} {
		if _, err := e.Run(ctx, RunAt(t0)); err != nil {
			t.Fatal(err)
		}
	}

	if err := incr.PutCube(data["PDR"].Clone(), t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	rep, err := incr.Run(ctx, RunAt(t0.Add(time.Hour)), WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fragments) == 0 {
		t.Fatalf("nothing dispatched after the re-put: %+v", rep)
	}
	for _, fr := range rep.Fragments {
		if fr.Mode != dispatch.ModeReused {
			t.Errorf("fragment %v is %s after an identical re-put, want reused", fr.Cubes, fr.Mode)
		}
	}
	for _, name := range gdpDerived {
		if n := len(st.Versions(name)); n != 1 {
			t.Errorf("%s has %d versions: a reused output was stored again", name, n)
		}
	}

	revised := churn(t, data["PDR"], true)
	t1 := t0.Add(24 * time.Hour)
	if err := incr.PutCube(revised, t1); err != nil {
		t.Fatal(err)
	}
	if err := full.PutCube(revised.Clone(), t1); err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(ctx, RunAt(t1)); err != nil {
		t.Fatal(err)
	}
	if _, err := incr.Run(ctx, RunAt(t1), WithIncremental()); err != nil {
		t.Fatal(err)
	}
	for _, rel := range gdpDerived {
		w, _ := full.Cube(rel)
		g, _ := incr.Cube(rel)
		exactEqual(t, rel, w, g)
	}
}

// TestProvenanceNamesTheStatement: a stored version is current, and a base,
// only for the statement that computed it. Another program defining the
// same cubes from the same operands, registered by a new engine over the
// same store, recomputes them instead of skipping them.
func TestProvenanceNamesTheStatement(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	a := quarterCube(t, 40)
	first := New(WithStore(st))
	if err := first.RegisterProgram("chain", chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := first.PutCube(a, time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Run(ctx, WithIncremental()); err != nil {
		t.Fatal(err)
	}

	const tripled = "cube A(q: quarter) measure v\n\nB := A * 3\nC := B + A\n"
	second := New(WithStore(st))
	if err := second.RegisterProgram("chain", tripled); err != nil {
		t.Fatal(err)
	}
	rep, err := second.Run(ctx, WithIncremental())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("cubes another statement computed were skipped as current: %v", rep.Skipped)
	}
	ref := New()
	if err := ref.RegisterProgram("chain", tripled); err != nil {
		t.Fatal(err)
	}
	if err := ref.PutCube(a.Clone(), time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"B", "C"} {
		w, _ := ref.Cube(rel)
		g, _ := second.Cube(rel)
		exactEqual(t, rel, w, g)
	}
}

// TestStatementPrintsArePinned: the fingerprint of a statement is in the
// provenance of every version it computed, durable stores included, so a
// statement that did not change keeps its print across releases: these are
// the GDP statements' prints as they were first persisted. A registration
// computes them, once per statement.
func TestStatementPrintsArePinned(t *testing.T) {
	e := New()
	if err := e.RegisterProgram("gdp", workload.GDPProgram); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"PQR":   0x382871a2a6733bb6,
		"RGDP":  0xbdda3ba3e19ae401,
		"GDP":   0x152658920fbc6db5,
		"GDPT":  0xa145d787111b7fe6,
		"PCHNG": 0xae5e46228c91f200,
	}
	for cube, print := range want {
		if got := e.stmts[cube].print; got != print {
			t.Errorf("%s: statement print %#x, want %#x", cube, got, print)
		}
	}
	if len(e.stmts) != len(want) {
		t.Errorf("%d statements registered, want %d", len(e.stmts), len(want))
	}
}

// TestSignOfZeroRevisionPropagates: a revision that only turns a measure 0
// into −0 is a change — WriteCSV writes the two apart — so an incremental run
// maintains what it feeds, and serves what a full run does, byte for byte. The
// revision arrives as an edited Clone, as a version built following the stored
// one, and as a cube of its own.
func TestSignOfZeroRevisionPropagates(t *testing.T) {
	sch := model.NewSchema("S", []model.Dim{{Name: "k", Type: model.TString}}, "v")
	negZero := math.Copysign(0, -1)
	revisions := map[string]func(prev *model.Cube) *model.Cube{
		"an edited Clone": func(prev *model.Cube) *model.Cube {
			c := prev.Clone()
			if err := c.Replace([]model.Value{model.Str("a")}, negZero); err != nil {
				t.Fatal(err)
			}
			return c
		},
		"a following Builder": func(prev *model.Cube) *model.Cube {
			b := model.NewBuilderOn(prev, sch)
			for _, tu := range prev.Tuples() {
				m := tu.Measure
				if tu.Dims[0].Equal(model.Str("a")) {
					m = negZero
				}
				if err := b.Add(tu.Dims, m); err != nil {
					t.Fatal(err)
				}
			}
			c, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
		"a cube of its own": func(*model.Cube) *model.Cube {
			c := model.NewCube(sch)
			for k, m := range map[string]float64{"a": negZero, "b": 1} {
				if err := c.Put([]model.Value{model.Str(k)}, m); err != nil {
					t.Fatal(err)
				}
			}
			return c.Freeze()
		},
	}
	for name, revise := range revisions {
		ctx := context.Background()
		t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
		t1 := t0.Add(24 * time.Hour)
		var out [2]string
		for i, opts := range [][]RunOption{nil, {WithIncremental()}} {
			e := New()
			if err := e.RegisterProgram("neg", "cube S(k: string) measure v\nB := S * -1\n"); err != nil {
				t.Fatal(err)
			}
			s := model.NewCube(sch)
			for k, m := range map[string]float64{"a": 0, "b": 1} {
				if err := s.Put([]model.Value{model.Str(k)}, m); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.PutCube(s.Freeze(), t0); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(ctx, append([]RunOption{RunAt(t0)}, opts...)...); err != nil {
				t.Fatal(err)
			}
			prev, _ := e.Cube("S")
			if err := e.PutCube(revise(prev), t1); err != nil {
				t.Fatal(err)
			}
			rep, err := e.Run(ctx, append([]RunOption{RunAt(t1)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 && !rep.Incremental {
				t.Fatalf("%s: the second run was not incremental: %+v", name, rep)
			}
			var b strings.Builder
			if err := e.WriteCSV("B", &b); err != nil {
				t.Fatal(err)
			}
			out[i] = b.String()
		}
		if out[0] != out[1] {
			t.Errorf("%s: the incremental run serves\n%s\nthe full run\n%s", name, out[1], out[0])
		}
	}
}
