// Package mapping implements the paper's central device: the generation of
// executable schema mappings from EXL statistical programs (Section 4).
//
// A mapping M = (S, T, Σst, Σt) has a source relation per cube, a renamed
// copy in the target, source-to-target copy tgds, extended target tgds (one
// or more per EXL statement) and egds enforcing the functional nature of
// cubes. The tgds extend the classical language with scalar expressions
// over measures, dimension terms (shifts and frequency conversions),
// aggregation operators and whole-relation black boxes.
package mapping

import (
	"strconv"
	"strings"

	"exlengine/internal/model"
)

// DimTerm is a term in a dimension position of an atom: a variable,
// optionally shifted by a constant (q-1) or wrapped in a dimension function
// (quarter(t)), or a constant value. Shift and Func are mutually exclusive.
type DimTerm struct {
	Var   string
	Shift int64        // term denotes Var + Shift
	Func  string       // term denotes Func(Var)
	Const *model.Value // constant term; Var empty
}

// V returns a plain variable term.
func V(name string) DimTerm { return DimTerm{Var: name} }

// String renders the term as in the paper's tgds ("q", "q-1",
// "quarter(t)").
func (t DimTerm) String() string {
	if t.Const != nil {
		return t.Const.String()
	}
	if t.Func != "" {
		return t.Func + "(" + t.Var + ")"
	}
	if t.Shift > 0 {
		return t.Var + "+" + strconv.FormatInt(t.Shift, 10)
	}
	if t.Shift < 0 {
		return t.Var + strconv.FormatInt(t.Shift, 10)
	}
	return t.Var
}

// MKind classifies measure terms.
type MKind uint8

// Measure term kinds.
const (
	MVar MKind = iota
	MConst
	MApply
)

// MTerm is a term in the measure position of a rhs atom: a variable bound
// in the lhs, a constant, or a scalar operator applied to sub-terms (with
// trailing scalar parameters, e.g. the base of log).
type MTerm struct {
	Kind   MKind
	Var    string
	Val    float64
	Op     string
	Args   []*MTerm
	Params []float64
}

// MV returns a measure variable term.
func MV(name string) *MTerm { return &MTerm{Kind: MVar, Var: name} }

// MC returns a measure constant term.
func MC(v float64) *MTerm { return &MTerm{Kind: MConst, Val: v} }

// MApp returns an operator application term.
func MApp(op string, args ...*MTerm) *MTerm {
	return &MTerm{Kind: MApply, Op: op, Args: args}
}

// Vars appends the variables occurring in the term to dst and returns it.
func (m *MTerm) Vars(dst []string) []string {
	switch m.Kind {
	case MVar:
		return append(dst, m.Var)
	case MApply:
		for _, a := range m.Args {
			dst = a.Vars(dst)
		}
	}
	return dst
}

// Clone returns a deep copy of the term.
func (m *MTerm) Clone() *MTerm {
	out := &MTerm{Kind: m.Kind, Var: m.Var, Val: m.Val, Op: m.Op}
	out.Params = append([]float64(nil), m.Params...)
	for _, a := range m.Args {
		out.Args = append(out.Args, a.Clone())
	}
	return out
}

// RenameAll applies a simultaneous variable renaming in place (no
// chaining: each original variable is looked up exactly once).
func (m *MTerm) RenameAll(rename map[string]string) {
	switch m.Kind {
	case MVar:
		if n, ok := rename[m.Var]; ok {
			m.Var = n
		}
	case MApply:
		for _, a := range m.Args {
			a.RenameAll(rename)
		}
	}
}

var infixOps = map[string]string{"add": "+", "sub": "-", "mul": "*", "div": "/"}

// String renders the measure expression as in the paper,
// e.g. "(r1 - r2) * 100 / r1".
func (m *MTerm) String() string {
	var b strings.Builder
	m.writeTo(&b)
	return b.String()
}

// writeTo is String into one builder, in time linear in the text.
func (m *MTerm) writeTo(b *strings.Builder) {
	switch m.Kind {
	case MVar:
		b.WriteString(m.Var)
	case MConst:
		b.WriteString(strconv.FormatFloat(m.Val, 'g', -1, 64))
	case MApply:
		if sym, ok := infixOps[m.Op]; ok && len(m.Args) == 2 {
			b.WriteByte('(')
			m.Args[0].writeTo(b)
			b.WriteString(" " + sym + " ")
			m.Args[1].writeTo(b)
			b.WriteByte(')')
			return
		}
		if m.Op == "neg" && len(m.Args) == 1 {
			b.WriteString("(-")
			m.Args[0].writeTo(b)
			b.WriteByte(')')
			return
		}
		b.WriteString(m.Op)
		b.WriteByte('(')
		for i, a := range m.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			a.writeTo(b)
		}
		for i, p := range m.Params {
			if i > 0 || len(m.Args) > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.FormatFloat(p, 'g', -1, 64))
		}
		b.WriteByte(')')
	default:
		b.WriteString("?")
	}
}

func fmtParams(ps []float64) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = strconv.FormatFloat(p, 'g', -1, 64)
	}
	return strings.Join(parts, ", ")
}
