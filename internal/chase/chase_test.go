package chase

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

func compile(t testing.TB, src string) *mapping.Mapping {
	t.Helper()
	prog, err := exl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func compileNormalized(t *testing.T, src string) *mapping.Mapping {
	t.Helper()
	prog, err := exl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.GenerateNormalized(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func solve(t *testing.T, m *mapping.Mapping, src Instance) Instance {
	t.Helper()
	out, err := New(m).Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tinyGDP builds a hand-checkable instance: 2 regions, the last 2 days of
// 2001-Q1 and the first 2 days of 2001-Q2.
func tinyGDP(t *testing.T) Instance {
	t.Helper()
	pdr := model.NewCube(model.NewSchema("PDR",
		[]model.Dim{{Name: "d", Type: model.TDay}, {Name: "r", Type: model.TString}}, "p"))
	rgdppc := model.NewCube(model.NewSchema("RGDPPC",
		[]model.Dim{{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "g"))
	days := []model.Period{
		model.NewDaily(2001, time.March, 30),
		model.NewDaily(2001, time.March, 31),
		model.NewDaily(2001, time.April, 1),
		model.NewDaily(2001, time.April, 2),
	}
	// north: 10, 20 in Q1; 30, 40 in Q2. south: 100, 200, 300, 400.
	for i, d := range days {
		if err := pdr.Put([]model.Value{model.Per(d), model.Str("north")}, float64((i+1)*10)); err != nil {
			t.Fatal(err)
		}
		if err := pdr.Put([]model.Value{model.Per(d), model.Str("south")}, float64((i+1)*100)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []struct {
		p model.Period
		n float64
		s float64
	}{
		{model.NewQuarterly(2001, 1), 2, 3},
		{model.NewQuarterly(2001, 2), 4, 5},
	} {
		if err := rgdppc.Put([]model.Value{model.Per(q.p), model.Str("north")}, q.n); err != nil {
			t.Fatal(err)
		}
		if err := rgdppc.Put([]model.Value{model.Per(q.p), model.Str("south")}, q.s); err != nil {
			t.Fatal(err)
		}
	}
	return Instance{"PDR": pdr, "RGDPPC": rgdppc}
}

func TestChaseGDPHandChecked(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	out := solve(t, m, tinyGDP(t))

	q1 := model.Per(model.NewQuarterly(2001, 1))
	q2 := model.Per(model.NewQuarterly(2001, 2))
	north := model.Str("north")
	south := model.Str("south")

	// PQR: averages per quarter and region.
	pqr := out["PQR"]
	if pqr.Len() != 4 {
		t.Fatalf("PQR len = %d", pqr.Len())
	}
	for _, c := range []struct {
		q, r model.Value
		want float64
	}{
		{q1, north, 15}, {q2, north, 35}, {q1, south, 150}, {q2, south, 350},
	} {
		got, ok := pqr.Get([]model.Value{c.q, c.r})
		if !ok || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("PQR(%v,%v) = %v (%v), want %v", c.q, c.r, got, ok, c.want)
		}
	}

	// RGDP = RGDPPC * PQR.
	rgdp := out["RGDP"]
	if got, _ := rgdp.Get([]model.Value{q1, north}); got != 30 {
		t.Errorf("RGDP(q1,north) = %v", got)
	}
	if got, _ := rgdp.Get([]model.Value{q2, south}); got != 1750 {
		t.Errorf("RGDP(q2,south) = %v", got)
	}

	// GDP = sum over regions.
	gdp := out["GDP"]
	if got, _ := gdp.Get([]model.Value{q1}); got != 480 { // 30 + 450
		t.Errorf("GDP(q1) = %v", got)
	}
	if got, _ := gdp.Get([]model.Value{q2}); got != 1890 { // 140 + 1750
		t.Errorf("GDP(q2) = %v", got)
	}

	// GDPT is the trend component of the decomposition of the GDP series.
	_, vals, err := gdp.SortedSeries()
	if err != nil {
		t.Fatal(err)
	}
	trend, _, _ := ops.Decompose(vals, 4)
	gdpt := out["GDPT"]
	if got, _ := gdpt.Get([]model.Value{q1}); math.Abs(got-trend[0]) > 1e-9 {
		t.Errorf("GDPT(q1) = %v, want %v", got, trend[0])
	}

	// PCHNG(q) = (GDPT(q) - GDPT(q-1)) * 100 / GDPT(q): defined only for q2.
	pchng := out["PCHNG"]
	if pchng.Len() != 1 {
		t.Fatalf("PCHNG len = %d (no q-1 for the first quarter)", pchng.Len())
	}
	t1, _ := gdpt.Get([]model.Value{q1})
	t2, _ := gdpt.Get([]model.Value{q2})
	want := (t2 - t1) * 100 / t2
	if got, _ := pchng.Get([]model.Value{q2}); math.Abs(got-want) > 1e-9 {
		t.Errorf("PCHNG(q2) = %v, want %v", got, want)
	}

	// Elementary cubes are copied into the solution.
	if out["PDR"].Len() != 8 || out["RGDPPC"].Len() != 4 {
		t.Error("elementary relations missing from solution")
	}
}

func TestChaseFusedEqualsNormalized(t *testing.T) {
	// The paper's correctness argument: the solution is the same whether
	// statements are decomposed into single-operator tgds or fused.
	src := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 3})
	fused := compile(t, workload.GDPProgram)
	norm := compileNormalized(t, workload.GDPProgram)

	outF := solve(t, fused, Instance(src))
	outN := solve(t, norm, Instance(src))

	for _, rel := range fused.Derived {
		cf, cn := outF[rel], outN[rel]
		if cf == nil || cn == nil {
			t.Fatalf("missing %s", rel)
		}
		if !cf.Equal(cn, model.Eps) {
			t.Errorf("%s differs between fused and normalized:\n%s",
				rel, strings.Join(cf.Diff(cn, model.Eps, 5), "\n"))
		}
	}
	// Normalized solutions additionally contain the auxiliary relations.
	if len(norm.AuxRelations()) == 0 {
		t.Fatal("normalized mapping should have aux relations")
	}
	for _, aux := range norm.AuxRelations() {
		if outN[aux] == nil {
			t.Errorf("aux %s missing from normalized solution", aux)
		}
	}
}

func TestChaseStats(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	_, stats, err := New(m).Maintain(context.Background(), tinyGDP(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strata != 5 {
		t.Errorf("strata = %d", stats.Strata)
	}
	if stats.TuplesGenerated == 0 || stats.Bindings == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestChaseMissingSourceRelation(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	out := solve(t, m, Instance{}) // everything missing -> empty
	for _, rel := range m.Derived {
		if out[rel] == nil || out[rel].Len() != 0 {
			t.Errorf("derived %s should be empty", rel)
		}
	}
}

func TestChaseUndefinedPointsDropTuples(t *testing.T) {
	m := compile(t, `
cube A(t: year) measure v
B := 1 / A
C := ln(A)
`)
	a := model.NewCube(model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2000))}, 2)
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2001))}, 0)
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2002))}, -3)
	out := solve(t, m, Instance{"A": a})
	if out["B"].Len() != 2 { // 1/0 dropped
		t.Errorf("B len = %d", out["B"].Len())
	}
	if out["C"].Len() != 1 { // ln(0), ln(-3) dropped
		t.Errorf("C len = %d", out["C"].Len())
	}
	if got, _ := out["B"].Get([]model.Value{model.Per(model.NewAnnual(2000))}); got != 0.5 {
		t.Errorf("B(2000) = %v", got)
	}
}

func TestChaseVectorInnerJoin(t *testing.T) {
	// Vectorial ops produce tuples only for dimension tuples in both cubes.
	m := compile(t, `
cube A(t: year) measure v
cube B(t: year) measure w
C := A + B
`)
	a := model.NewCube(model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
	b := model.NewCube(model.NewSchema("B", []model.Dim{{Name: "t", Type: model.TYear}}, "w"))
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2000))}, 1)
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2001))}, 2)
	_ = b.Put([]model.Value{model.Per(model.NewAnnual(2001))}, 10)
	_ = b.Put([]model.Value{model.Per(model.NewAnnual(2002))}, 20)
	out := solve(t, m, Instance{"A": a, "B": b})
	if out["C"].Len() != 1 {
		t.Fatalf("C len = %d", out["C"].Len())
	}
	if got, _ := out["C"].Get([]model.Value{model.Per(model.NewAnnual(2001))}); got != 12 {
		t.Errorf("C(2001) = %v", got)
	}
}

func TestChaseBroadcast(t *testing.T) {
	m := compile(t, workload.SupervisionProgram)
	src := workload.SupervisionSource(5, 12, 1)
	out := solve(t, m, Instance(src))

	assets, sys, share := out["ASSETS"], out["SYS"], out["SHARE"]
	if share.Len() != assets.Len() {
		t.Fatalf("SHARE len = %d, want %d", share.Len(), assets.Len())
	}
	// Spot-check one share value and that shares sum to 100 per quarter.
	sums := make(map[string]float64)
	for _, tu := range share.Tuples() {
		sums[tu.Dims[0].String()] += tu.Measure
	}
	for q, s := range sums {
		if math.Abs(s-100) > 1e-6 {
			t.Errorf("shares at %s sum to %v", q, s)
		}
	}
	if sys.Len() != 12 {
		t.Errorf("SYS len = %d", sys.Len())
	}
	// GAP = SYS - SYSTREND must average ~0 by the OLS normal equations.
	var gapSum float64
	for _, tu := range out["GAP"].Tuples() {
		gapSum += tu.Measure
	}
	if math.Abs(gapSum) > 1e-4*1e9 {
		t.Errorf("GAP sum = %v", gapSum)
	}
}

func TestChaseShiftSemantics(t *testing.T) {
	// shift(e, s)(t) = e(t-s): the lag operator.
	m := compile(t, "cube A(t: year) measure v\nB := shift(A, 1)")
	a := model.NewCube(model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2000))}, 42)
	out := solve(t, m, Instance{"A": a})
	got, ok := out["B"].Get([]model.Value{model.Per(model.NewAnnual(2001))})
	if !ok || got != 42 {
		t.Errorf("B(2001) = %v, %v; want 42 (the 2000 value)", got, ok)
	}
}

func TestChaseAggregationOperators(t *testing.T) {
	src := `
cube A(t: year, r: string) measure v
MN := min(A, group by t)
MX := max(A, group by t)
MD := median(A, group by t)
CT := count(A, group by t)
SD := stddev(A, group by t)
TOT := sum(A)
`
	m := compile(t, src)
	a := model.NewCube(model.NewSchema("A",
		[]model.Dim{{Name: "t", Type: model.TYear}, {Name: "r", Type: model.TString}}, "v"))
	y := model.Per(model.NewAnnual(2000))
	for i, v := range []float64{4, 1, 3, 2} {
		_ = a.Put([]model.Value{y, model.Str(string(rune('a' + i)))}, v)
	}
	out := solve(t, m, Instance{"A": a})
	checks := map[string]float64{"MN": 1, "MX": 4, "MD": 2.5, "CT": 4, "SD": math.Sqrt(1.25)}
	for rel, want := range checks {
		got, ok := out[rel].Get([]model.Value{y})
		if !ok || math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v (%v), want %v", rel, got, ok, want)
		}
	}
	// TOT is 0-dimensional: a single scalar tuple.
	if got, ok := out["TOT"].Get(nil); !ok || got != 10 {
		t.Errorf("TOT = %v (%v)", got, ok)
	}
}

func TestChaseEgdFailure(t *testing.T) {
	// A hand-built non-functional tgd: project away a dimension without
	// aggregating. The chase must fail with an egd violation.
	sch := model.NewSchema("A",
		[]model.Dim{{Name: "t", Type: model.TYear}, {Name: "r", Type: model.TString}}, "v")
	out := model.NewSchema("B", []model.Dim{{Name: "t", Type: model.TYear}}, "v")
	m := &mapping.Mapping{
		Schemas:    map[string]model.Schema{"A": sch, "B": out},
		Elementary: []string{"A"},
		Tgds: []*mapping.Tgd{{
			ID:      "bad",
			Kind:    mapping.TupleLevel,
			Lhs:     []mapping.Atom{{Rel: "A", Dims: []mapping.DimTerm{mapping.V("t"), mapping.V("r")}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("t")}},
			Measure: mapping.MV("v"),
		}},
	}
	a := model.NewCube(sch)
	yr := model.Per(model.NewAnnual(2000))
	_ = a.Put([]model.Value{yr, model.Str("x")}, 1)
	_ = a.Put([]model.Value{yr, model.Str("y")}, 2)
	_, err := New(m).Solve(Instance{"A": a})
	if !errors.Is(err, model.ErrFunctional) {
		t.Fatalf("want egd failure, got %v", err)
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("failure should name the tgd: %v", err)
	}
}

func TestChaseRepeatedVariableInAtom(t *testing.T) {
	// Hand-built tgd with a repeated variable: B(t) = A(t, t) diagonal.
	sch := model.NewSchema("A",
		[]model.Dim{{Name: "i", Type: model.TInt}, {Name: "j", Type: model.TInt}}, "v")
	out := model.NewSchema("B", []model.Dim{{Name: "i", Type: model.TInt}}, "v")
	m := &mapping.Mapping{
		Schemas:    map[string]model.Schema{"A": sch, "B": out},
		Elementary: []string{"A"},
		Tgds: []*mapping.Tgd{{
			ID:      "diag",
			Kind:    mapping.TupleLevel,
			Lhs:     []mapping.Atom{{Rel: "A", Dims: []mapping.DimTerm{mapping.V("x"), mapping.V("x")}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("x")}},
			Measure: mapping.MV("v"),
		}},
	}
	a := model.NewCube(sch)
	_ = a.Put([]model.Value{model.Int(1), model.Int(1)}, 11)
	_ = a.Put([]model.Value{model.Int(1), model.Int(2)}, 12)
	_ = a.Put([]model.Value{model.Int(2), model.Int(2)}, 22)
	sol := solve(t, m, Instance{"A": a})
	if sol["B"].Len() != 2 {
		t.Fatalf("B len = %d", sol["B"].Len())
	}
	if got, _ := sol["B"].Get([]model.Value{model.Int(2)}); got != 22 {
		t.Errorf("B(2) = %v", got)
	}
}

func TestChaseInflationProgram(t *testing.T) {
	m := compile(t, workload.InflationProgram)
	src := workload.InflationSource(8, 36, 1)
	out := solve(t, m, Instance(src))
	if out["CPI"].Len() != 36 {
		t.Errorf("CPI len = %d", out["CPI"].Len())
	}
	if out["CPIY"].Len() != 3 {
		t.Errorf("CPIY len = %d", out["CPIY"].Len())
	}
	// Year-over-year changes exist only from month 13 on.
	if out["INFL"].Len() != 24 {
		t.Errorf("INFL len = %d", out["INFL"].Len())
	}
	// Prices trend upward, so inflation should be positive everywhere.
	for _, tu := range out["INFL"].Tuples() {
		if tu.Measure <= 0 {
			t.Errorf("INFL%v = %v, want > 0", tu.Dims, tu.Measure)
		}
	}
}
