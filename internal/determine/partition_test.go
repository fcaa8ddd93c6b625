package determine

import (
	"fmt"
	"slices"
	"testing"

	"exlengine/internal/exl"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

// chainCatalog builds n independent A->B->C chains as separate programs.
func chainCatalog(t *testing.T, n int) *Graph {
	t.Helper()
	as := make(map[string]*exl.Analyzed, n)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`
cube S%02d(t: month) measure v
A%02d := S%02d * 2
B%02d := movavg(A%02d, 3)
C%02d := shift(B%02d, 1)
`, i, i, i, i, i, i, i)
		as[fmt.Sprintf("p%02d", i)] = analyze(t, src)
	}
	g, err := Build(as)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionByComponentSeparatesPrograms(t *testing.T) {
	g := chainCatalog(t, 4)
	plan := g.FullPlan()

	// The plan is A00..A03, B00..B03, C00..C03 and all A statements share
	// a target, yet the 4 programs stay separate: three per-target
	// fragments per chain.
	subs := Partition(plan, AssignByPreference, g)
	if len(subs) != 12 {
		t.Fatalf("component partition = %d subgraphs, want 12: %+v", len(subs), subs)
	}
	// Every subgraph's statements belong to one chain.
	for _, s := range subs {
		suffix := s.Stmts[0].Cube()[1:]
		for _, ref := range s.Stmts {
			if ref.Cube()[1:] != suffix {
				t.Errorf("subgraph mixes chains: %+v", s.Stmts)
			}
		}
	}
	// Plan coverage is preserved, in order per component.
	total := 0
	for _, s := range subs {
		total += len(s.Stmts)
	}
	if total != len(plan) {
		t.Errorf("coverage = %d, want %d", total, len(plan))
	}
}

func TestPartitionByComponentRespectsOrderWithinComponent(t *testing.T) {
	// One chain alternating targets: etl (mul), frame (movavg), etl-ish
	// shift -> sql. A later same-target statement must NOT merge into an
	// earlier subgraph across an intervening dependency.
	g := build(t, map[string]string{"p": `
cube S(t: month) measure v
A := S * 2
B := movavg(A, 3)
C := B * 2
`})
	subs := Partition(g.FullPlan(), AssignByPreference, g)
	if len(subs) != 3 {
		t.Fatalf("subgraphs = %+v", subs)
	}
	if subs[0].Stmts[0].Cube() != "A" || subs[1].Stmts[0].Cube() != "B" || subs[2].Stmts[0].Cube() != "C" {
		t.Errorf("order violated: %+v", subs)
	}
	if subs[0].Target != ops.TargetETL || subs[1].Target != ops.TargetFrame || subs[2].Target != ops.TargetETL {
		t.Errorf("targets = %v %v %v", subs[0].Target, subs[1].Target, subs[2].Target)
	}
}

// TestPartitionByComponentSingleProgramMatchesGreedy: on a single
// component the partition is the greedy grouping of consecutive
// same-target statements — for GDP, five statements on alternating targets.
func TestPartitionByComponentSingleProgramMatchesGreedy(t *testing.T) {
	g := build(t, map[string]string{"gdp": workload.GDPProgram})
	subs := Partition(g.FullPlan(), AssignByPreference, g)
	want := []struct {
		target ops.Target
		cubes  []string
	}{
		{ops.TargetSQL, []string{"PQR"}},
		{ops.TargetETL, []string{"RGDP"}},
		{ops.TargetSQL, []string{"GDP"}},
		{ops.TargetFrame, []string{"GDPT"}},
		{ops.TargetSQL, []string{"PCHNG"}},
	}
	if len(subs) != len(want) {
		t.Fatalf("subgraphs = %+v, want %d", subs, len(want))
	}
	for i, w := range want {
		var cubes []string
		for _, ref := range subs[i].Stmts {
			cubes = append(cubes, ref.Cube())
		}
		if subs[i].Target != w.target || !slices.Equal(cubes, w.cubes) {
			t.Errorf("subgraph %d = %s %v, want %s %v", i, subs[i].Target, cubes, w.target, w.cubes)
		}
	}
}
