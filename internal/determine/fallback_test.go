package determine

import (
	"testing"

	"exlengine/internal/ops"
)

// subgraphFor partitions the program's full plan with the default assigner
// and returns the subgraph computing the named cube.
func subgraphFor(t *testing.T, src, cube string) Subgraph {
	t.Helper()
	g := build(t, map[string]string{"p": src})
	for _, sub := range Partition(g.FullPlan(), AssignByPreference, g) {
		for _, ref := range sub.Stmts {
			if ref.Cube() == cube {
				return sub
			}
		}
	}
	t.Fatalf("no subgraph computes %s", cube)
	return Subgraph{}
}

func TestFallbackOrderArithmetic(t *testing.T) {
	sub := subgraphFor(t, "cube S(t: year) measure v\nA := S * 2", "A")
	if sub.Target != ops.TargetETL {
		t.Fatalf("primary = %v, want etl", sub.Target)
	}
	got := FallbackOrder(sub)
	want := []ops.Target{ops.TargetSQL, ops.TargetFrame, ops.TargetChase}
	if len(got) != len(want) {
		t.Fatalf("fallbacks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fallbacks = %v, want %v", got, want)
		}
	}
}

func TestFallbackOrderBlackBoxSkipsETL(t *testing.T) {
	// movavg is a black-box operator: the ETL streamer has no native
	// whole-series step, so degradation must never route it there.
	sub := subgraphFor(t, "cube S(t: month) measure v\nB := movavg(S, 3)", "B")
	if sub.Target != ops.TargetFrame {
		t.Fatalf("primary = %v, want frame", sub.Target)
	}
	got := FallbackOrder(sub)
	for _, tg := range got {
		if tg == ops.TargetETL {
			t.Errorf("black-box subgraph offered unsupported etl fallback: %v", got)
		}
		if tg == sub.Target {
			t.Errorf("fallback order contains the failing primary: %v", got)
		}
	}
	if len(got) == 0 || got[len(got)-1] != ops.TargetChase {
		t.Errorf("chase must be the universal last resort: %v", got)
	}
}

func TestFallbackOrderVectorSkipsSQL(t *testing.T) {
	// Padded vectorial operators have no outer-join translation in the
	// emitted SQL dialect.
	sub := subgraphFor(t, `
cube S(t: year) measure v
cube R(t: year) measure v
C := vsum0(S, R)
`, "C")
	got := FallbackOrder(sub)
	for _, tg := range got {
		if tg == ops.TargetSQL {
			t.Errorf("vector subgraph offered unsupported sql fallback: %v", got)
		}
	}
	if len(got) == 0 || got[len(got)-1] != ops.TargetChase {
		t.Errorf("chase must be last: %v", got)
	}
}

func TestFallbackOrderNeverRepeatsAndExcludesPrimary(t *testing.T) {
	g := build(t, map[string]string{"p": `
cube S(t: month) measure v
A := S * 2
B := movavg(A, 3)
C := sum(B, group by t)
D := shift(C, 1)
`})
	for _, sub := range Partition(g.FullPlan(), AssignByPreference, g) {
		got := FallbackOrder(sub)
		seen := map[ops.Target]bool{}
		for _, tg := range got {
			if tg == sub.Target {
				t.Errorf("subgraph %v: fallback contains primary: %v", sub.Target, got)
			}
			if seen[tg] {
				t.Errorf("subgraph %v: duplicate fallback: %v", sub.Target, got)
			}
			seen[tg] = true
		}
		if len(got) == 0 {
			t.Errorf("subgraph %v: no fallback at all", sub.Target)
		}
	}
}

func TestFallbackOrderChasePrimaryExcluded(t *testing.T) {
	sub := subgraphFor(t, "cube S(t: year) measure v\nA := S * 2", "A")
	sub.Target = ops.TargetChase // forced chase run that failed
	got := FallbackOrder(sub)
	for _, tg := range got {
		if tg == ops.TargetChase {
			t.Errorf("chase primary re-offered as fallback: %v", got)
		}
	}
	if len(got) == 0 {
		t.Error("degrading away from the chase must still offer the real engines")
	}
}
