package mapping

import (
	"fmt"

	"exlengine/internal/exl"
	"exlengine/internal/model"
)

// Generate translates an analyzed EXL program into its schema mapping and
// then simplifies it with the fusion pass, recombining chains of
// tuple-level tgds over auxiliary cubes into single complex tgds — the
// behaviour the paper describes for EXLEngine ("our tool is able to
// simplify them", producing tgd (5) from statement (5)).
func Generate(a *exl.Analyzed) (*Mapping, error) {
	m, err := GenerateNormalized(a)
	if err != nil {
		return nil, err
	}
	Fuse(m)
	return m, nil
}

// GenerateNormalized translates an analyzed EXL program into a schema
// mapping in fully normalized form: every statement is first decomposed
// into single-operator statements over auxiliary cubes (the paper's
// (5a)-(5d)), and each of those yields exactly one tgd.
func GenerateNormalized(a *exl.Analyzed) (*Mapping, error) {
	g := &generator{
		m: &Mapping{
			Schemas:  make(map[string]model.Schema, len(a.Schemas)),
			Analyzed: a,
		},
	}
	for _, name := range a.Elementary {
		g.m.Schemas[name] = a.Schemas[name]
	}
	g.m.Elementary = append([]string(nil), a.Elementary...)
	for _, s := range a.Stmts {
		g.stmt = s.Lhs
		g.auxN = 0
		if err := g.emit(s.Expr, s.Lhs, false); err != nil {
			return nil, err
		}
		g.m.Derived = append(g.m.Derived, s.Lhs)
	}
	g.m.rebuildEgds()
	return g.m, nil
}

type generator struct {
	m    *Mapping
	stmt string // lhs of the statement being translated
	auxN int    // auxiliary cube counter within the statement
	tgdN int    // tgd id counter
}

// materialize returns the relation name holding the value of e, generating
// tgds for auxiliary cubes as needed. Cube literals are used directly.
func (g *generator) materialize(e *exl.AExpr) (string, error) {
	if e.Kind == exl.ACube {
		return e.Cube, nil
	}
	g.auxN++
	name := fmt.Sprintf("_%s_%d", g.stmt, g.auxN)
	if err := g.emit(e, name, true); err != nil {
		return "", err
	}
	return name, nil
}

// emit generates the tgd(s) that populate relation out from expression e.
func (g *generator) emit(e *exl.AExpr, out string, aux bool) error {
	sch := e.Schema.Rename(out)
	if aux {
		sch.Measure = "value"
	} else {
		// Statement roots use the analyzer's schema, which carries the
		// inherited measure name (GDP keeps RGDP's g).
		sch = g.m.Analyzed.Schemas[out]
	}
	switch e.Kind {
	case exl.ACube:
		// A bare copy statement: identity tuple-level tgd.
		lhs := g.atomFor(e.Cube, nil)
		g.add(&Tgd{Kind: TupleLevel, Lhs: []Atom{lhs}, Rhs: g.rhsAtom(sch), Measure: MV(lhs.MVar), Auxiliary: aux}, sch)
		return nil

	case exl.ABinary:
		return g.emitBinary(e, out, sch, aux)

	case exl.APadVector:
		return g.emitPadVector(e, out, sch, aux)

	case exl.AScalarFunc:
		rel, err := g.materialize(e.Arg)
		if err != nil {
			return err
		}
		lhs := g.atomFor(rel, nil)
		measure := &MTerm{Kind: MApply, Op: e.Op, Args: []*MTerm{MV(lhs.MVar)}, Params: e.Params}
		g.add(&Tgd{Kind: TupleLevel, Lhs: []Atom{lhs}, Rhs: g.rhsAtom(sch), Measure: measure, Auxiliary: aux}, sch)
		return nil

	case exl.AShift:
		rel, err := g.materialize(e.Arg)
		if err != nil {
			return err
		}
		lhs := g.atomFor(rel, nil)
		rhs := g.rhsAtom(sch)
		// shift(e, s)(t) = e(t-s): the lhs tuple at t contributes the rhs
		// tuple at t+s.
		rhs.Dims[e.ShiftDim].Shift = e.ShiftBy
		g.add(&Tgd{Kind: TupleLevel, Lhs: []Atom{lhs}, Rhs: rhs, Measure: MV(lhs.MVar), Auxiliary: aux}, sch)
		return nil

	case exl.AAgg:
		rel, err := g.materialize(e.Arg)
		if err != nil {
			return err
		}
		lhs := g.atomFor(rel, nil)
		rhs := Atom{Rel: out}
		for _, grp := range e.GroupBy {
			rhs.Dims = append(rhs.Dims, DimTerm{Var: lhs.Dims[grp.DimIndex].Var, Func: grp.Func})
		}
		g.add(&Tgd{Kind: Aggregation, Agg: e.Op, Lhs: []Atom{lhs}, Rhs: rhs, Measure: MV(lhs.MVar), Auxiliary: aux}, sch)
		return nil

	case exl.ABlackBox:
		rel, err := g.materialize(e.Arg)
		if err != nil {
			return err
		}
		g.add(&Tgd{
			Kind: BlackBox, BB: e.Op, BBParams: e.Params,
			Lhs: []Atom{{Rel: rel}}, Rhs: Atom{Rel: out},
			Auxiliary: aux,
		}, sch)
		return nil

	default:
		return fmt.Errorf("mapping: cannot translate expression kind %d", e.Kind)
	}
}

func (g *generator) emitBinary(e *exl.AExpr, out string, sch model.Schema, aux bool) error {
	xConst := e.X.Kind == exl.AConst
	yConst := e.Y.Kind == exl.AConst

	if xConst || yConst {
		// Scalar application: one cube operand, one constant.
		cubeSide := e.X
		if xConst {
			cubeSide = e.Y
		}
		rel, err := g.materialize(cubeSide)
		if err != nil {
			return err
		}
		lhs := g.atomFor(rel, nil)
		var args []*MTerm
		if xConst {
			args = []*MTerm{MC(e.X.Val), MV(lhs.MVar)}
		} else {
			args = []*MTerm{MV(lhs.MVar), MC(e.Y.Val)}
		}
		g.add(&Tgd{Kind: TupleLevel, Lhs: []Atom{lhs}, Rhs: g.rhsAtom(sch), Measure: MApp(e.Op, args...), Auxiliary: aux}, sch)
		return nil
	}

	// Vectorial application: two cube operands joined on dimension names.
	relX, err := g.materialize(e.X)
	if err != nil {
		return err
	}
	relY, err := g.materialize(e.Y)
	if err != nil {
		return err
	}
	// Measure variables must not clash with each other or with any join
	// variable of either atom, or the natural-join semantics would be
	// corrupted.
	dimVars := make(map[string]bool)
	for _, d := range g.m.Schemas[relX].Dims {
		dimVars[d.Name] = true
	}
	for _, d := range g.m.Schemas[relY].Dims {
		dimVars[d.Name] = true
	}
	lhsX := g.atomFor(relX, dimVars)
	dimVars[lhsX.MVar] = true
	lhsY := g.atomFor(relY, dimVars)
	g.add(&Tgd{
		Kind: TupleLevel,
		Lhs:  []Atom{lhsX, lhsY},
		Rhs:  g.rhsAtom(sch),
		// Dimension names match by construction, so shared variables give
		// the natural join of the operands.
		Measure:   MApp(e.Op, MV(lhsX.MVar), MV(lhsY.MVar)),
		Auxiliary: aux,
	}, sch)
	return nil
}

// emitPadVector generates the tgd for vsum0/vsub0: two atoms whose
// bindings are combined on the union of their dimension tuples, with the
// default value standing in for missing measures.
func (g *generator) emitPadVector(e *exl.AExpr, out string, sch model.Schema, aux bool) error {
	relX, err := g.materialize(e.X)
	if err != nil {
		return err
	}
	relY, err := g.materialize(e.Y)
	if err != nil {
		return err
	}
	dimVars := make(map[string]bool)
	for _, d := range g.m.Schemas[relX].Dims {
		dimVars[d.Name] = true
	}
	lhsX := g.atomFor(relX, dimVars)
	dimVars[lhsX.MVar] = true
	lhsY := g.atomFor(relY, dimVars)
	padOp := "add"
	if e.Op == "vsub0" {
		padOp = "sub"
	}
	g.add(&Tgd{
		Kind:    PadVector,
		PadOp:   padOp,
		Lhs:     []Atom{lhsX, lhsY},
		Rhs:     g.rhsAtom(sch),
		Measure: MApp(padOp, MV(lhsX.MVar), MV(lhsY.MVar)),
	}, sch)
	g.m.Tgds[len(g.m.Tgds)-1].Auxiliary = aux
	return nil
}

// atomFor builds the lhs atom for a relation: one variable per dimension,
// named after the dimension, plus a measure variable named after the
// measure (with "y" standing in for the default "value").
func (g *generator) atomFor(rel string, takenMVars map[string]bool) Atom {
	sch := g.m.Schemas[rel]
	a := Atom{Rel: rel}
	for _, d := range sch.Dims {
		a.Dims = append(a.Dims, V(d.Name))
	}
	mv := sch.Measure
	if mv == "value" || mv == "" {
		mv = "y"
	}
	if sch.DimIndex(mv) >= 0 || takenMVars[mv] {
		// Suffix until the name clashes with neither a dimension nor a
		// variable already taken by a sibling atom.
		base := mv
		for i := 2; ; i++ {
			mv = fmt.Sprintf("%s%d", base, i)
			if sch.DimIndex(mv) < 0 && !takenMVars[mv] {
				break
			}
		}
	}
	a.MVar = mv
	return a
}

// rhsAtom builds the rhs atom of a tuple-level tgd: result dimensions in
// schema order, each referencing the operand variable of the same name.
func (g *generator) rhsAtom(sch model.Schema) Atom {
	a := Atom{Rel: sch.Name}
	for _, d := range sch.Dims {
		a.Dims = append(a.Dims, V(d.Name))
	}
	return a
}

func (g *generator) add(t *Tgd, sch model.Schema) {
	g.tgdN++
	t.ID = fmt.Sprintf("t%d", g.tgdN)
	t.Stmt = g.stmt
	t.Rhs.Rel = sch.Name
	g.m.Schemas[sch.Name] = sch
	g.m.Tgds = append(g.m.Tgds, t)
}
