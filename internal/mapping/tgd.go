package mapping

import (
	"fmt"
	"strings"
)

// TgdKind classifies the generated dependencies.
type TgdKind uint8

// Tgd kinds, mirroring the statement classes of Section 4.1.
const (
	Copy        TgdKind = iota // source-to-target copy F_S -> F_T
	TupleLevel                 // scalar/vectorial/shift operators
	Aggregation                // group-by + aggregation operator
	BlackBox                   // whole-relation operator (stl, movavg, …)
	PadVector                  // vectorial operator over the union of tuples, padding with a default
)

// String returns the kind name.
func (k TgdKind) String() string {
	switch k {
	case Copy:
		return "copy"
	case TupleLevel:
		return "tuple-level"
	case Aggregation:
		return "aggregation"
	case BlackBox:
		return "blackbox"
	case PadVector:
		return "pad-vector"
	default:
		return "invalid"
	}
}

// Atom is a relational atom R(t1, …, tn, y): dimension terms plus a
// measure variable. Black-box tgds use atoms with no terms at all (the
// paper's tgd (4) has no variables).
type Atom struct {
	Rel  string
	Dims []DimTerm
	MVar string
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	out := Atom{Rel: a.Rel, MVar: a.MVar}
	out.Dims = append([]DimTerm(nil), a.Dims...)
	return out
}

// String renders the atom, e.g. "GDPT(q-1, r2)".
func (a Atom) String() string {
	if len(a.Dims) == 0 && a.MVar == "" {
		return a.Rel
	}
	parts := make([]string, 0, len(a.Dims)+1)
	for _, d := range a.Dims {
		parts = append(parts, d.String())
	}
	if a.MVar != "" {
		parts = append(parts, a.MVar)
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// Tgd is an extended tuple-generating dependency. All tgds here are full
// (no existential variables): values in generated tuples are uniquely
// defined. Depending on Kind:
//
//   - TupleLevel: Lhs atoms join on shared variables; the Rhs tuple's
//     dimension terms and the Measure expression are computed per binding.
//   - Aggregation: Lhs atoms join; bindings are grouped by the Rhs
//     dimension terms; Agg is applied to the bag of Measure values.
//   - BlackBox: the whole Lhs relation is transformed by operator BB.
//   - Copy: the source relation is copied into its target twin.
type Tgd struct {
	ID   string // "t1", "t2", … in statement order
	Kind TgdKind
	Lhs  []Atom
	Rhs  Atom

	Measure *MTerm // TupleLevel: rhs measure; Aggregation: aggregated expression

	Agg string // Aggregation: operator name

	BB       string    // BlackBox: operator name
	BBParams []float64 // BlackBox: scalar parameters

	// PadVector: the underlying scalar operator ("add" or "sub") and the
	// default value substituted for missing operand tuples.
	PadOp      string
	PadDefault float64

	// Stmt is the lhs cube of the EXL statement this tgd was generated
	// from (auxiliary tgds carry their root statement), letting the
	// determination engine regroup tgds by statement.
	Stmt string

	// Auxiliary marks tgds whose target cube was introduced by
	// normalization of a multi-operator statement (5a)-(5d) and is not part
	// of the program's visible output.
	Auxiliary bool
}

// Target returns the name of the relation the tgd populates.
func (t *Tgd) Target() string { return t.Rhs.Rel }

// Clone returns a deep copy of the tgd.
func (t *Tgd) Clone() *Tgd {
	out := *t
	out.Lhs = make([]Atom, len(t.Lhs))
	for i, a := range t.Lhs {
		out.Lhs[i] = a.Clone()
	}
	out.Rhs = t.Rhs.Clone()
	if t.Measure != nil {
		out.Measure = t.Measure.Clone()
	}
	out.BBParams = append([]float64(nil), t.BBParams...)
	return &out
}

// Vars returns the set of variable names used anywhere in the tgd.
func (t *Tgd) Vars() map[string]bool {
	vars := make(map[string]bool)
	for _, a := range t.Lhs {
		for _, d := range a.Dims {
			if d.Var != "" {
				vars[d.Var] = true
			}
		}
		if a.MVar != "" {
			vars[a.MVar] = true
		}
	}
	for _, d := range t.Rhs.Dims {
		if d.Var != "" {
			vars[d.Var] = true
		}
	}
	if t.Measure != nil {
		for _, v := range t.Measure.Vars(nil) {
			vars[v] = true
		}
	}
	return vars
}

// String renders the tgd in the paper's logic notation, e.g.
//
//	GDPT(q, r1) ∧ GDPT(q-1, r2) → PCHNG(q, (r1 - r2) * 100 / r1)
//	RGDP(q, r, g) → GDP(q, sum(g))
//	GDP → GDPT(stl_t(GDP))
func (t *Tgd) String() string {
	var b strings.Builder
	switch t.Kind {
	case BlackBox:
		b.WriteString(t.Lhs[0].Rel)
		b.WriteString(" → ")
		b.WriteString(t.Rhs.Rel)
		b.WriteByte('(')
		b.WriteString(t.BB)
		b.WriteByte('(')
		b.WriteString(t.Lhs[0].Rel)
		if len(t.BBParams) > 0 {
			b.WriteString(", ")
			b.WriteString(fmtParams(t.BBParams))
		}
		b.WriteString("))")
	default:
		for i, a := range t.Lhs {
			if i > 0 {
				b.WriteString(" ∧ ")
			}
			b.WriteString(a.String())
		}
		b.WriteString(" → ")
		b.WriteString(t.Rhs.Rel)
		b.WriteByte('(')
		parts := make([]string, 0, len(t.Rhs.Dims)+1)
		for _, d := range t.Rhs.Dims {
			parts = append(parts, d.String())
		}
		switch t.Kind {
		case Aggregation:
			parts = append(parts, t.Agg+"("+t.Measure.String()+")")
		default:
			parts = append(parts, t.Measure.String())
		}
		b.WriteString(strings.Join(parts, ", "))
		b.WriteByte(')')
		if t.Kind == PadVector {
			fmt.Fprintf(&b, "  [outer, default %g]", t.PadDefault)
		}
	}
	return b.String()
}

// Egd is an equality-generating dependency asserting the functional nature
// of a cube: F(x1,…,xn,y1) ∧ F(x1,…,xn,y2) → y1 = y2.
type Egd struct {
	Rel  string
	Dims int
}

// String renders the egd in logic notation.
func (e Egd) String() string {
	xs := make([]string, e.Dims)
	for i := range xs {
		xs[i] = fmt.Sprintf("x%d", i+1)
	}
	head := e.Rel + "(" + strings.Join(append(append([]string{}, xs...), "y1"), ", ") + ")"
	head2 := e.Rel + "(" + strings.Join(append(append([]string{}, xs...), "y2"), ", ") + ")"
	return head + " ∧ " + head2 + " → (y1 = y2)"
}
