package determine

import (
	"exlengine/internal/exl"
	"exlengine/internal/ops"
)

// Subgraph is a maximal run of consecutive plan statements assigned to the
// same target system. Each subgraph is "coherently delegated to a single
// target system" (Section 6).
type Subgraph struct {
	Target ops.Target
	Stmts  []StmtRef
}

// Assigner picks the execution target for one statement.
type Assigner func(StmtRef) ops.Target

// Partition splits the plan by connected component of the dependency
// graph first and by target second: statements of independent programs
// land in separate subgraphs even when they share a target, so the
// dispatcher's waves run them concurrently (the paper's "applying
// parallelization and optimization patterns", Section 6). Within a
// component, consecutive same-target statements group, so each dispatch
// carries as much work as possible.
func Partition(plan []StmtRef, assign Assigner, g *Graph) []Subgraph {
	// Union-find over the plan's derived cubes: two statements are in the
	// same component when one consumes the other's output (directly or
	// transitively through plan members).
	parent := make(map[string]string, len(plan))
	inPlan := make(map[string]bool, len(plan))
	for _, ref := range plan {
		parent[ref.Cube()] = ref.Cube()
		inPlan[ref.Cube()] = true
	}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	for _, ref := range plan {
		for _, op := range g.deps[ref.Cube()] {
			if inPlan[op] {
				union(ref.Cube(), op)
			}
		}
	}

	type key struct {
		component string
		target    ops.Target
	}
	var out []Subgraph
	index := make(map[key]int)
	lastKey := make(map[string]key) // component -> key of its latest subgraph
	for _, ref := range plan {
		k := key{component: find(ref.Cube()), target: assign(ref)}
		// Group with an existing subgraph only when it is the component's
		// most recent one; otherwise execution order within the component
		// would be violated.
		if i, ok := index[k]; ok && lastKey[k.component] == k {
			out[i].Stmts = append(out[i].Stmts, ref)
			continue
		}
		index[k] = len(out)
		lastKey[k.component] = k
		out = append(out, Subgraph{Target: k.target, Stmts: []StmtRef{ref}})
	}
	return out
}

// AssignByPreference is the default Assigner: it collects the operators of
// the statement and picks the first target in the dominant operator's
// preference list that supports every operator involved — the technical
// metadata rule of Section 6 ("the most suitable target system … according
// to the specificity of the involved operators").
func AssignByPreference(ref StmtRef) ops.Target {
	opNames := stmtOps(ref.Stmt.Expr, nil)
	if len(opNames) == 0 {
		return ops.TargetETL // a bare copy statement
	}
	dominant := dominantOp(opNames)
	for _, t := range ops.Preference(dominant) {
		if supportsAll(t, opNames) {
			return t
		}
	}
	return ops.TargetChase // the chase supports everything
}

// FixedAssigner assigns every statement to one target, for forced runs.
func FixedAssigner(t ops.Target) Assigner {
	return func(StmtRef) ops.Target { return t }
}

// stmtOps collects the operator names used by an expression.
func stmtOps(e *exl.AExpr, out []string) []string {
	switch e.Kind {
	case exl.ABinary, exl.APadVector, exl.AScalarFunc, exl.AAgg, exl.ABlackBox:
		if e.Op != "" && !containsStr(out, e.Op) {
			out = append(out, e.Op)
		}
	case exl.AShift:
		if !containsStr(out, "shift") {
			out = append(out, "shift")
		}
	}
	switch e.Kind {
	case exl.ABinary, exl.APadVector:
		out = stmtOps(e.X, out)
		out = stmtOps(e.Y, out)
	case exl.AScalarFunc, exl.AShift, exl.AAgg, exl.ABlackBox:
		out = stmtOps(e.Arg, out)
	}
	return out
}

// dominantOp picks the operator that should drive the target choice: a
// black box if present, else an aggregation, else a shift, else the first
// operator.
func dominantOp(names []string) string {
	best := names[0]
	rank := func(n string) int {
		info, ok := ops.Lookup(n)
		if !ok {
			return 0
		}
		switch info.Class {
		case ops.ClassBlackBox:
			return 3
		case ops.ClassAggregation:
			return 2
		case ops.ClassShift:
			return 1
		default:
			return 0
		}
	}
	for _, n := range names[1:] {
		if rank(n) > rank(best) {
			best = n
		}
	}
	return best
}

func supportsAll(t ops.Target, names []string) bool {
	for _, n := range names {
		if !ops.Supports(t, n) {
			return false
		}
	}
	return true
}
