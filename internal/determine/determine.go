// Package determine implements EXLEngine's determination engine (Section
// 6): it maintains the global dependency DAG over all cubes of all
// registered programs, detects which derived cubes must be recalculated
// when elementary cubes change, builds the dynamic EXL program to run
// (topologically sorted), and partitions it into subgraphs, each delegated
// to the single most suitable target system according to the technical
// metadata (the operator-support and preference tables of internal/ops).
package determine

import (
	"errors"
	"fmt"
	"sort"

	"exlengine/internal/exl"
	"exlengine/internal/model"
)

// StmtRef identifies one derived-cube definition within the registered
// program set.
type StmtRef struct {
	Program string
	Stmt    *exl.AStmt
}

// Cube returns the derived cube the statement defines.
func (r StmtRef) Cube() string { return r.Stmt.Lhs }

// Graph is the global cube-dependency DAG: nodes are cubes, and there is
// an edge from A to C when C is calculated from A by some statement.
type Graph struct {
	defs       map[string]StmtRef  // derived cube -> defining statement
	deps       map[string][]string // cube -> operand cubes
	consumers  map[string][]string // cube -> cubes derived from it
	elementary map[string]bool
	order      []string // all derived cubes, topologically sorted
	schemas    map[string]model.Schema
}

// Build constructs the graph from a set of analyzed programs (keyed by
// program name, iterated deterministically). A cube may be derived by at
// most one statement across all programs; a cube derived in one program
// may feed statements of another.
func Build(programs map[string]*exl.Analyzed) (*Graph, error) {
	g := &Graph{
		defs:       make(map[string]StmtRef),
		deps:       make(map[string][]string),
		consumers:  make(map[string][]string),
		elementary: make(map[string]bool),
		schemas:    make(map[string]model.Schema),
	}
	names := make([]string, 0, len(programs))
	for n := range programs {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, pn := range names {
		a := programs[pn]
		for _, s := range a.Stmts {
			if prev, dup := g.defs[s.Lhs]; dup {
				return nil, fmt.Errorf("determine: cube %s is derived by both %s and %s", s.Lhs, prev.Program, pn)
			}
			g.defs[s.Lhs] = StmtRef{Program: pn, Stmt: s}
			operands := operandCubes(s.Expr, nil)
			g.deps[s.Lhs] = operands
			for _, op := range operands {
				g.consumers[op] = append(g.consumers[op], s.Lhs)
			}
		}
		for name, sch := range a.Schemas {
			if old, ok := g.schemas[name]; ok && !old.SameDims(sch) {
				return nil, fmt.Errorf("determine: cube %s has conflicting schemas across programs (%s vs %s)", name, old, sch)
			}
			g.schemas[name] = sch
		}
	}
	// Elementary = referenced or declared but never derived.
	for name := range g.schemas {
		if _, derived := g.defs[name]; !derived {
			g.elementary[name] = true
		}
	}
	// Any operand of a statement must be elementary or derived somewhere.
	for cube, operands := range g.deps {
		for _, op := range operands {
			if !g.elementary[op] {
				if _, ok := g.defs[op]; !ok {
					return nil, fmt.Errorf("determine: cube %s (operand of %s) is neither elementary nor derived", op, cube)
				}
			}
		}
	}
	order, err := g.topoSort()
	if err != nil {
		return nil, err
	}
	g.order = order
	return g, nil
}

// operandCubes collects the cube literals of an expression.
func operandCubes(e *exl.AExpr, out []string) []string {
	switch e.Kind {
	case exl.ACube:
		if !containsStr(out, e.Cube) {
			out = append(out, e.Cube)
		}
	case exl.ABinary, exl.APadVector:
		out = operandCubes(e.X, out)
		out = operandCubes(e.Y, out)
	case exl.AScalarFunc, exl.AShift, exl.AAgg, exl.ABlackBox:
		out = operandCubes(e.Arg, out)
	}
	return out
}

// topoSort orders all derived cubes so every cube follows its operands
// (Kahn's algorithm with deterministic tie-breaking). Cross-program cycles
// are reported as errors: within a program acyclicity holds by
// construction, but two programs could feed each other.
func (g *Graph) topoSort() ([]string, error) {
	indeg := make(map[string]int, len(g.defs))
	for cube, operands := range g.deps {
		n := 0
		for _, op := range operands {
			if !g.elementary[op] {
				n++
			}
		}
		indeg[cube] = n
	}
	var ready []string
	for cube, n := range indeg {
		if n == 0 {
			ready = append(ready, cube)
		}
	}
	sort.Strings(ready)
	var order []string
	for len(ready) > 0 {
		cube := ready[0]
		ready = ready[1:]
		order = append(order, cube)
		var newly []string
		for _, c := range g.consumers[cube] {
			indeg[c]--
			if indeg[c] == 0 {
				newly = append(newly, c)
			}
		}
		sort.Strings(newly)
		ready = append(ready, newly...)
		sort.Strings(ready)
	}
	if len(order) != len(g.defs) {
		return nil, fmt.Errorf("determine: dependency cycle across programs involving %d cube(s)", len(g.defs)-len(order))
	}
	return order, nil
}

// Elementary reports whether the cube is a leaf of the graph.
func (g *Graph) Elementary(name string) bool { return g.elementary[name] }

// Schemas returns the merged cube schemas of all programs.
func (g *Graph) Schemas() map[string]model.Schema { return g.schemas }

// Derived returns all derived cubes in topological order.
func (g *Graph) Derived() []string { return append([]string(nil), g.order...) }

// Deps returns the operand cubes a derived cube is calculated from.
func (g *Graph) Deps(cube string) []string {
	return append([]string(nil), g.deps[cube]...)
}

// Def returns the statement deriving the cube.
func (g *Graph) Def(cube string) (StmtRef, bool) {
	r, ok := g.defs[cube]
	return r, ok
}

// ErrUnknownCube reports a changed cube that no program derives or reads.
// Affected wraps it with the cube's name; classify with errors.Is.
var ErrUnknownCube = errors.New("unknown cube")

// Affected performs the determination step: given the cubes whose values
// changed (usually elementary leaves), it returns the derived cubes that
// must be recalculated, in topological order — the dynamic EXL program of
// Section 6.
func (g *Graph) Affected(changed []string) ([]StmtRef, error) {
	seen := make(map[string]bool)
	var visit func(string)
	visit = func(cube string) {
		for _, c := range g.consumers[cube] {
			if !seen[c] {
				seen[c] = true
				visit(c)
			}
		}
	}
	for _, c := range changed {
		if _, isDerived := g.defs[c]; !isDerived && !g.elementary[c] {
			return nil, fmt.Errorf("determine: %w %s", ErrUnknownCube, c)
		}
		if _, isDerived := g.defs[c]; isDerived {
			// Recalculating a derived cube also recalculates it itself.
			seen[c] = true
		}
		visit(c)
	}
	var plan []StmtRef
	for _, cube := range g.order {
		if seen[cube] {
			plan = append(plan, g.defs[cube])
		}
	}
	return plan, nil
}

// FullPlan returns the plan recalculating every derived cube.
func (g *Graph) FullPlan() []StmtRef {
	plan := make([]StmtRef, 0, len(g.order))
	for _, cube := range g.order {
		plan = append(plan, g.defs[cube])
	}
	return plan
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
