package determine

import "exlengine/internal/ops"

// FallbackOrder returns every target able to execute the whole subgraph —
// each target natively supports every operator of every statement — in
// decreasing preference order of the subgraph's dominant operator, with
// the chase (which supports everything) always last as the universal
// fallback. The subgraph's currently assigned target is excluded: callers
// degrade *away* from a failing engine, never back onto it.
func FallbackOrder(sub Subgraph) []ops.Target {
	var opNames []string
	for _, ref := range sub.Stmts {
		opNames = stmtOps(ref.Stmt.Expr, opNames)
	}
	dominant := ""
	if len(opNames) > 0 {
		dominant = dominantOp(opNames)
	}
	// Every preference list holds every target that supports its operator,
	// the chase last (TestPreferenceHoldsEverySupportingTarget).
	var out []ops.Target
	for _, t := range ops.Preference(dominant) {
		if t != sub.Target && (t == ops.TargetChase || supportsAll(t, opNames)) {
			out = append(out, t)
		}
	}
	return out
}
