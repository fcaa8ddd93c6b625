package determine

import (
	"fmt"
	"strings"
	"testing"

	"exlengine/internal/exl"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

func analyze(t *testing.T, src string) *exl.Analyzed {
	t.Helper()
	prog, err := exl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func build(t *testing.T, programs map[string]string) *Graph {
	t.Helper()
	as := make(map[string]*exl.Analyzed, len(programs))
	for n, src := range programs {
		as[n] = analyze(t, src)
	}
	g, err := Build(as)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func cubes(plan []StmtRef) []string {
	out := make([]string, len(plan))
	for i, r := range plan {
		out[i] = r.Cube()
	}
	return out
}

func TestGraphGDP(t *testing.T) {
	g := build(t, map[string]string{"gdp": workload.GDPProgram})
	if !g.Elementary("PDR") || !g.Elementary("RGDPPC") || g.Elementary("GDP") {
		t.Error("elementary classification")
	}
	order := g.Derived()
	want := []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("topo order = %v", order)
	}
	if ref, ok := g.Def("GDP"); !ok || ref.Program != "gdp" {
		t.Errorf("Def(GDP) = %+v, %v", ref, ok)
	}
	if _, ok := g.Def("PDR"); ok {
		t.Error("elementary cube has no definition")
	}
}

func TestAffected(t *testing.T) {
	g := build(t, map[string]string{"gdp": workload.GDPProgram})

	// Changing RGDPPC affects RGDP and everything downstream, but not PQR.
	plan, err := g.Affected([]string{"RGDPPC"})
	if err != nil {
		t.Fatal(err)
	}
	got := cubes(plan)
	if strings.Join(got, ",") != "RGDP,GDP,GDPT,PCHNG" {
		t.Errorf("affected by RGDPPC = %v", got)
	}

	// Changing PDR affects the whole chain.
	plan, _ = g.Affected([]string{"PDR"})
	if len(plan) != 5 {
		t.Errorf("affected by PDR = %v", cubes(plan))
	}

	// Asking to recalculate a derived cube includes it and its downstream.
	plan, _ = g.Affected([]string{"GDP"})
	if strings.Join(cubes(plan), ",") != "GDP,GDPT,PCHNG" {
		t.Errorf("affected by GDP = %v", cubes(plan))
	}

	// Unknown cube.
	if _, err := g.Affected([]string{"NOPE"}); err == nil {
		t.Error("unknown cube must fail")
	}

	// FullPlan covers everything.
	if len(g.FullPlan()) != 5 {
		t.Error("FullPlan")
	}
}

func TestCrossProgramGraph(t *testing.T) {
	// Program B consumes a cube derived by program A. The analyzer of B
	// sees GDP as external.
	progA := workload.GDPProgram
	srcB := "GDP2 := GDP * 2"
	aA := analyze(t, progA)
	progB, err := exl.Parse(srcB)
	if err != nil {
		t.Fatal(err)
	}
	// Program B is analyzed against program A's schemas as externals.
	aB, err := exl.Analyze(progB, aA.Schemas)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(map[string]*exl.Analyzed{"a": aA, "b": aB})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.Affected([]string{"RGDPPC"})
	if err != nil {
		t.Fatal(err)
	}
	got := cubes(plan)
	if !containsStr(got, "GDP2") {
		t.Errorf("cross-program propagation missing GDP2: %v", got)
	}
	// GDP2 must come after GDP.
	gi, g2i := -1, -1
	for i, c := range got {
		if c == "GDP" {
			gi = i
		}
		if c == "GDP2" {
			g2i = i
		}
	}
	if gi < 0 || g2i < gi {
		t.Errorf("order violated: %v", got)
	}
}

func TestDuplicateDerivedAcrossPrograms(t *testing.T) {
	aA := analyze(t, "cube X(t: year)\nY := X * 1")
	aB := analyze(t, "cube X2(t: year)\nY := X2 * 2")
	if _, err := Build(map[string]*exl.Analyzed{"a": aA, "b": aB}); err == nil {
		t.Error("duplicate derived cube must fail")
	}
}

func TestConflictingSchemasAcrossPrograms(t *testing.T) {
	aA := analyze(t, "cube X(t: year)\nA1 := X * 1")
	aB := analyze(t, "cube X(t: year, r: string)\nB1 := X * 2")
	if _, err := Build(map[string]*exl.Analyzed{"a": aA, "b": aB}); err == nil {
		t.Error("conflicting cube schemas must fail")
	}
}

func TestPartitionByPreference(t *testing.T) {
	g := build(t, map[string]string{"gdp": workload.GDPProgram})
	subs := Partition(g.FullPlan(), AssignByPreference, g)
	if len(subs) < 2 {
		t.Fatalf("expected several subgraphs, got %+v", subs)
	}
	// Reassemble and check per-cube assignment.
	byCube := make(map[string]ops.Target)
	for _, s := range subs {
		for _, ref := range s.Stmts {
			byCube[ref.Cube()] = s.Target
		}
	}
	// Aggregations prefer SQL; the stl black box prefers the frame engine;
	// PCHNG (shift + arithmetic) prefers SQL.
	if byCube["PQR"] != ops.TargetSQL || byCube["GDP"] != ops.TargetSQL {
		t.Errorf("aggregation assignment = %v", byCube)
	}
	if byCube["GDPT"] != ops.TargetFrame {
		t.Errorf("blackbox assignment = %v", byCube)
	}
	if byCube["PCHNG"] != ops.TargetSQL {
		t.Errorf("shift assignment = %v", byCube)
	}
	// Consecutive same-target statements group.
	for i := 1; i < len(subs); i++ {
		if subs[i].Target == subs[i-1].Target {
			t.Error("adjacent subgraphs with equal targets must merge")
		}
	}
}

func TestFixedAssigner(t *testing.T) {
	g := build(t, map[string]string{"gdp": workload.GDPProgram})
	subs := Partition(g.FullPlan(), FixedAssigner(ops.TargetChase), g)
	if len(subs) != 1 || subs[0].Target != ops.TargetChase || len(subs[0].Stmts) != 5 {
		t.Errorf("fixed partition = %+v", subs)
	}
}

func TestAssignRespectsSupport(t *testing.T) {
	// A statement mixing a black box is never assigned to ETL even if
	// arithmetic dominates elsewhere; here stl dominates and prefers frame.
	g := build(t, map[string]string{"p": "cube A(t: quarter)\nB := stl_t(A) * 2"})
	subs := Partition(g.FullPlan(), AssignByPreference, g)
	if subs[0].Target == ops.TargetETL {
		t.Errorf("black-box statement assigned to ETL: %+v", subs)
	}
}

// TestDeepCrossProgramChain: ten programs, each deriving from the previous
// one's output; a change at the root propagates through all of them in
// order.
func TestDeepCrossProgramChain(t *testing.T) {
	as := make(map[string]*exl.Analyzed)
	schemas := analyze(t, "cube C00(t: year)\nC01 := C00 * 2").Schemas
	as["p01"] = analyze(t, "cube C00(t: year)\nC01 := C00 * 2")
	for i := 2; i <= 10; i++ {
		src := fmt.Sprintf("C%02d := C%02d + 1", i, i-1)
		prog, err := exl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		a, err := exl.Analyze(prog, schemas)
		if err != nil {
			t.Fatal(err)
		}
		for n, s := range a.Schemas {
			schemas[n] = s
		}
		as[fmt.Sprintf("p%02d", i)] = a
	}
	g, err := Build(as)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.Affected([]string{"C00"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 10 {
		t.Fatalf("plan = %v", cubes(plan))
	}
	for i, ref := range plan {
		want := fmt.Sprintf("C%02d", i+1)
		if ref.Cube() != want {
			t.Errorf("plan[%d] = %s, want %s", i, ref.Cube(), want)
		}
	}
	// A change in the middle touches only the downstream half.
	plan, _ = g.Affected([]string{"C05"})
	if len(plan) != 6 { // C05..C10
		t.Errorf("mid-chain plan = %v", cubes(plan))
	}
}
