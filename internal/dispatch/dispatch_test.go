package dispatch

import (
	"context"
	"strings"
	"testing"

	"exlengine/internal/chase"
	"exlengine/internal/determine"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

type fixture struct {
	graph   *determine.Graph
	mapping *mapping.Mapping
	schemas map[string]model.Schema
	data    workload.Data
}

func setup(t *testing.T, prog string, data workload.Data) *fixture {
	t.Helper()
	p, err := exl.Parse(prog)
	if err != nil {
		t.Fatal(err)
	}
	a, err := exl.Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	g, err := determine.Build(map[string]*exl.Analyzed{"p": a})
	if err != nil {
		t.Fatal(err)
	}
	schemas := make(map[string]model.Schema)
	for n, sch := range g.Schemas() {
		schemas[n] = sch
	}
	for n, sch := range m.Schemas {
		if _, ok := schemas[n]; !ok {
			schemas[n] = sch
		}
	}
	return &fixture{graph: g, mapping: m, schemas: schemas, data: data}
}

func (f *fixture) tgds(cube string) []*mapping.Tgd {
	var out []*mapping.Tgd
	for _, t := range f.mapping.Tgds {
		if t.Stmt == cube {
			out = append(out, t)
		}
	}
	return out
}

func reference(t *testing.T, f *fixture) chase.Instance {
	t.Helper()
	ref, err := chase.New(f.mapping).Solve(chase.Instance(f.data))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestDispatchMixedTargets runs the GDP plan with preference-based
// assignment: the plan spans SQL, frame and ETL fragments, and the final
// cubes must match the pure chase solution.
func TestDispatchMixedTargets(t *testing.T) {
	f := setup(t, workload.GDPProgram, workload.GDPSource(workload.GDPConfig{Days: 380, Regions: 3}))
	ref := reference(t, f)

	subs := determine.Partition(f.graph.FullPlan(), determine.AssignByPreference, f.graph)
	if len(subs) < 2 {
		t.Fatalf("expected a mixed-target plan, got %+v", subs)
	}
	d := &Dispatcher{}
	got, _, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range f.mapping.Derived {
		if got[rel] == nil {
			t.Fatalf("missing result %s", rel)
		}
		if !got[rel].Equal(ref[rel], 1e-6) {
			t.Errorf("%s differs from chase:\n%s", rel, strings.Join(got[rel].Diff(ref[rel], 1e-6, 5), "\n"))
		}
	}
}

// TestDispatchEveryFixedTarget runs the full plan pinned to each target in
// turn; all must agree with the chase.
func TestDispatchEveryFixedTarget(t *testing.T) {
	f := setup(t, workload.GDPProgram, workload.GDPSource(workload.GDPConfig{Days: 380, Regions: 3}))
	ref := reference(t, f)
	for _, target := range ops.AllTargets {
		t.Run(string(target), func(t *testing.T) {
			subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(target), f.graph)
			d := &Dispatcher{}
			got, _, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range f.mapping.Derived {
				if !got[rel].Equal(ref[rel], 1e-6) {
					t.Errorf("%s differs on %s", rel, target)
				}
			}
		})
	}
}

// TestDispatchParallel exercises the wave scheduler with two independent
// programs that can run concurrently.
func TestDispatchParallel(t *testing.T) {
	// Two independent chains from independent sources, plus a join of both.
	prog := `
cube A(t: year) measure v
cube B(t: year) measure v
A2 := A * 2
B2 := B * 3
C  := A2 + B2
`
	a := model.NewCube(model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
	b := model.NewCube(model.NewSchema("B", []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
	for y := 2000; y < 2020; y++ {
		_ = a.Put([]model.Value{model.Per(model.NewAnnual(y))}, float64(y))
		_ = b.Put([]model.Value{model.Per(model.NewAnnual(y))}, float64(y)/2)
	}
	f := setup(t, prog, workload.Data{"A": a, "B": b})
	ref := reference(t, f)

	// Force one fragment per statement on alternating targets so the wave
	// scheduler has real work.
	i := 0
	alternating := func(determine.StmtRef) ops.Target {
		i++
		if i%2 == 0 {
			return ops.TargetSQL
		}
		return ops.TargetFrame
	}
	subs := determine.Partition(f.graph.FullPlan(), alternating, f.graph)
	d := &Dispatcher{}
	got, _, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"A2", "B2", "C"} {
		if !got[rel].Equal(ref[rel], 1e-6) {
			t.Errorf("%s differs under parallel dispatch", rel)
		}
	}
}

func TestDispatchMissingInput(t *testing.T) {
	f := setup(t, "cube A(t: year) measure v\nB := A * 2", workload.Data{})
	subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(ops.TargetChase), f.graph)
	d := &Dispatcher{}
	if _, _, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, map[string]*model.Cube{}, nil); err == nil {
		t.Error("missing input cube must fail")
	}
}

func TestDispatchUnknownCube(t *testing.T) {
	f := setup(t, "cube A(t: year) measure v\nB := A * 2", workload.Data{})
	subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(ops.TargetChase), f.graph)
	d := &Dispatcher{}
	// A TgdSource that knows nothing.
	empty := func(string) []*mapping.Tgd { return nil }
	if _, _, err := d.RunContext(context.Background(), subs, empty, f.schemas, f.data, nil); err == nil {
		t.Error("missing tgds must fail")
	}
}

// TestFragmentCompilesChaseOnce: every maintained attempt of a fragment,
// on its target or a fallback, runs the same compiled Solver (a full run is
// backend.Run and keeps nothing), and both branches of run give the chase
// solution.
func TestFragmentCompilesChaseOnce(t *testing.T) {
	f := setup(t, workload.GDPProgram, workload.GDPSource(workload.GDPConfig{Days: 100, Regions: 2}))
	subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(ops.TargetChase), f.graph)
	frag, err := buildFragment(subs[0], f.tgds, f.schemas)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var oc outcome
	full, err := frag.run(ctx, ops.TargetChase, f.data, nil, &oc)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range f.mapping.Derived {
		if !full[rel].Equal(reference(t, f)[rel], 0) {
			t.Errorf("%s: full run differs from the chase solution", rel)
		}
	}

	// Revise one measure of PDR and maintain the outputs of the full run.
	old := f.data["PDR"]
	revised := old.Clone()
	tu := old.Tuples()[7]
	if err := revised.Replace(tu.Dims, tu.Measure*1.5); err != nil {
		t.Fatal(err)
	}
	f.data["PDR"] = revised
	// Each attempt maintains a front of its own.
	front := func() *chase.Front {
		return &chase.Front{Deltas: map[string]*model.CubeDelta{"PDR": model.DiffCubes("PDR", old, revised)}, Bases: full}
	}
	if _, err := frag.run(ctx, ops.TargetChase, f.data, front(), &oc); err != nil {
		t.Fatal(err)
	}
	s := frag.solver
	if s == nil {
		t.Fatal("maintaining attempt left no solver on the fragment")
	}
	incr, err := frag.run(ctx, ops.TargetChase, f.data, front(), &oc)
	if err != nil {
		t.Fatal(err)
	}
	if frag.solver != s {
		t.Error("second maintaining attempt rebuilt the fragment's solver")
	}
	// The fragment holds the stl_t black box, which the chase recomputes
	// whole: the attempt went through the chase's maintenance and says so.
	if oc.mode != ModeFull || !strings.Contains(oc.reason, "GDPT (blackbox)") || oc.front == nil {
		t.Errorf("outcome %+v: want a chase-maintained attempt naming GDPT's black box", oc)
	}
	ref := reference(t, f)
	for _, rel := range f.mapping.Derived {
		if !incr[rel].Equal(ref[rel], 0) {
			t.Errorf("%s: maintained run differs from the chase solution", rel)
		}
	}
}
