package ops

import (
	"slices"
	"testing"
)

// TestPreferenceHoldsEverySupportingTarget: the preference list of an
// operator names every target that supports it, the chase last, so the
// fallback order (determine.FallbackOrder) needs nothing beyond it. The
// operators are every registered one, the four algebraic ones and an
// unknown name.
func TestPreferenceHoldsEverySupportingTarget(t *testing.T) {
	for _, op := range append(Names(), "add", "sub", "mul", "div", "") {
		prefs := Preference(op)
		for _, target := range AllTargets {
			if Supports(target, op) && !slices.Contains(prefs, target) {
				t.Errorf("%q: %s supports it, and its preference list %v leaves it out", op, target, prefs)
			}
		}
		if len(prefs) == 0 || prefs[len(prefs)-1] != TargetChase {
			t.Errorf("%q: preference list %v does not end with the chase", op, prefs)
		}
	}
}
