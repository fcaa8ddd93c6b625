package sqlengine

import "testing"

// TestExprFuzzNullSemantics checks the SQL engine's NULL propagation
// against the independent reference evaluator.
func TestExprFuzzNullSemantics(t *testing.T) {
	divs, err := FuzzNullExprs(1, 400)
	if err != nil {
		t.Fatalf("expression fuzz aborted: %v", err)
	}
	for _, d := range divs {
		t.Errorf("NULL-semantics divergence: %s", d)
	}
}
