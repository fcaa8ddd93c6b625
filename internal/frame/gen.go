package frame

import (
	"context"
	"fmt"
	"slices"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
)

// Translate renders a whole mapping as a frame script: one program per tgd
// in stratification order.
func Translate(m *mapping.Mapping) (*Script, error) {
	s := &Script{}
	for _, t := range m.Tgds {
		p, err := TranslateTgd(t, m.Schemas)
		if err != nil {
			return nil, fmt.Errorf("frame: tgd %s: %w", t.ID, err)
		}
		s.Programs = append(s.Programs, p)
	}
	return s, nil
}

// ExecuteContext runs the script over the source cubes and returns every
// computed relation (derived and auxiliary) as cubes. Cancellation aborts
// before the next step (RunContext), and a tracer carried by the context
// records one span per program (tgd) and per frame operation. A program's
// result is built as the revision of its cube's previous version in prev,
// where there is one (ToCube).
func ExecuteContext(ctx context.Context, s *Script, m *mapping.Mapping, source, prev map[string]*model.Cube) (map[string]*model.Cube, error) {
	env := Env{}
	for _, name := range m.Elementary {
		if c, ok := source[name]; ok {
			env[name] = FromCube(c)
		} else {
			env[name] = FromCube(model.NewCube(m.Schemas[name]).Freeze())
		}
	}
	out := make(map[string]*model.Cube)
	for _, p := range s.Programs {
		pctx, span := obs.StartSpan(ctx, "frame.program",
			obs.String("tgd", p.TgdID), obs.String("cube", p.Target), obs.Int("ops", len(p.Steps)))
		res, err := p.RunContext(pctx, env)
		if err != nil {
			span.EndErr(err)
			return nil, err
		}
		cube, err := res.ToCube(prev[p.Target], m.Schemas[p.Target])
		if err != nil {
			err = fmt.Errorf("frame: tgd %s result: %w", p.TgdID, err)
			span.EndErr(err)
			return nil, err
		}
		span.SetAttr(obs.Int("tuples", cube.Len()))
		span.End()
		out[p.Target] = cube
		env[p.Target] = FromCube(cube)
	}
	return out, nil
}

// TranslateTgd translates one tgd into a frame program. The generated
// steps follow the paper's R translation shape: per-operand key
// preparation, merge on shared variables, element-wise calculation of the
// result columns, optional group aggregation or whole-series call, and a
// final projection onto the target cube's columns.
func TranslateTgd(t *mapping.Tgd, schemas map[string]model.Schema) (*Program, error) {
	out, ok := schemas[t.Rhs.Rel]
	if !ok {
		return nil, fmt.Errorf("no schema for %s", t.Rhs.Rel)
	}
	p := &Program{TgdID: t.ID, Target: t.Target(), Result: t.Target()}

	if t.Kind == mapping.BlackBox {
		in, ok := schemas[t.Lhs[0].Rel]
		if !ok {
			return nil, fmt.Errorf("no schema for %s", t.Lhs[0].Rel)
		}
		tmp := "tmp_" + t.ID
		p.Steps = append(p.Steps,
			SeriesOp{Out: tmp, In: t.Lhs[0].Rel, Op: t.BB, Params: t.BBParams,
				TimeCol: in.Dims[0].Name, ValCol: in.Measure},
			SelectCols{Out: p.Result, In: tmp,
				Cols: []string{in.Dims[0].Name, in.Measure},
				As:   []string{out.Dims[0].Name, out.Measure}},
		)
		return p, nil
	}

	if t.Kind == mapping.PadVector {
		return translatePadVector(t, schemas, p, out)
	}

	// Build one frame per lhs atom with columns named after the tgd
	// variables.
	var atomVars []string // frame variable names
	varCols := make(map[string]bool)
	for i, atom := range t.Lhs {
		sch, ok := schemas[atom.Rel]
		if !ok {
			return nil, fmt.Errorf("no schema for %s", atom.Rel)
		}
		av := fmt.Sprintf("a%d_%s", i+1, t.ID)
		p.Steps = append(p.Steps, Copy{Out: av, In: atom.Rel})

		var selCols, selAs []string
		seen := make(map[string]bool)
		for j, d := range atom.Dims {
			dimCol := sch.Dims[j].Name
			switch {
			case d.Const != nil:
				p.Steps = append(p.Steps, Filter{Var: av, Col: dimCol, V: *d.Const})
			case d.Func != "":
				return nil, fmt.Errorf("dimension function %s in lhs is not translatable", d.Func)
			default:
				if seen[d.Var] {
					return nil, fmt.Errorf("repeated variable %s within an atom is not supported", d.Var)
				}
				seen[d.Var] = true
				src := dimCol
				if d.Shift != 0 {
					// The stored value is Var+Shift, so Var = value-Shift.
					tmpCol := "k_" + d.Var
					p.Steps = append(p.Steps, MapCol{Var: av, Col: tmpCol, E: PShift{X: Col{Name: dimCol}, N: -d.Shift}})
					src = tmpCol
				}
				selCols = append(selCols, src)
				selAs = append(selAs, d.Var)
				varCols[d.Var] = true
			}
		}
		if atom.MVar != "" {
			selCols = append(selCols, sch.Measure)
			selAs = append(selAs, atom.MVar)
			varCols[atom.MVar] = true
		}
		p.Steps = append(p.Steps, SelectCols{Out: av, In: av, Cols: selCols, As: selAs})
		atomVars = append(atomVars, av)
	}

	// Merge the atom frames on their shared variables.
	cur := atomVars[0]
	curCols := frameVarCols(t, 0)
	for i := 1; i < len(atomVars); i++ {
		next := frameVarCols(t, i)
		var by []string
		for _, c := range next {
			if slices.Contains(curCols, c) {
				by = append(by, c)
			}
		}
		for _, c := range next {
			if !slices.Contains(curCols, c) {
				curCols = append(curCols, c)
			}
		}
		merged := fmt.Sprintf("m%d_%s", i, t.ID)
		p.Steps = append(p.Steps, Merge{Out: merged, X: cur, Y: atomVars[i], By: by})
		cur = merged
	}

	// Result dimension columns.
	var dimCols []string
	for k, d := range t.Rhs.Dims {
		col := fmt.Sprintf("d%d_%s", k+1, t.ID)
		var e Expr
		switch {
		case d.Const != nil:
			return nil, fmt.Errorf("constant rhs dimensions are not supported")
		case d.Func != "":
			e = DimApply{Fn: d.Func, X: Col{Name: d.Var}}
		case d.Shift != 0:
			e = PShift{X: Col{Name: d.Var}, N: d.Shift}
		default:
			e = Col{Name: d.Var}
		}
		p.Steps = append(p.Steps, MapCol{Var: cur, Col: col, E: e})
		dimCols = append(dimCols, col)
	}

	// Measure column.
	mcol := "v_" + t.ID
	me, err := MTermExpr(t.Measure)
	if err != nil {
		return nil, err
	}
	p.Steps = append(p.Steps, MapCol{Var: cur, Col: mcol, E: me})

	outDims := out.DimNames()
	if t.Kind == mapping.Aggregation {
		agg := "g_" + t.ID
		p.Steps = append(p.Steps,
			GroupAgg{Out: agg, In: cur, By: dimCols, Agg: t.Agg, ValCol: mcol, OutCol: mcol},
			SelectCols{Out: p.Result, In: agg,
				Cols: append(append([]string(nil), dimCols...), mcol),
				As:   append(append([]string(nil), outDims...), out.Measure)},
		)
		return p, nil
	}
	p.Steps = append(p.Steps, SelectCols{Out: p.Result, In: cur,
		Cols: append(append([]string(nil), dimCols...), mcol),
		As:   append(append([]string(nil), outDims...), out.Measure)})
	return p, nil
}

// translatePadVector builds the program for a padded vectorial tgd: the
// two operand frames are prepared with variable-named columns and combined
// by a PadMerge over the union of their dimension tuples.
func translatePadVector(t *mapping.Tgd, schemas map[string]model.Schema, p *Program, out model.Schema) (*Program, error) {
	var atomVars []string
	for i, atom := range t.Lhs {
		sch, ok := schemas[atom.Rel]
		if !ok {
			return nil, fmt.Errorf("no schema for %s", atom.Rel)
		}
		av := fmt.Sprintf("a%d_%s", i+1, t.ID)
		p.Steps = append(p.Steps, Copy{Out: av, In: atom.Rel})
		var selCols, selAs []string
		for j, d := range atom.Dims {
			if d.Const != nil || d.Func != "" || d.Shift != 0 {
				return nil, fmt.Errorf("padded tgds require plain variable atoms")
			}
			selCols = append(selCols, sch.Dims[j].Name)
			selAs = append(selAs, d.Var)
		}
		selCols = append(selCols, sch.Measure)
		selAs = append(selAs, atom.MVar)
		p.Steps = append(p.Steps, SelectCols{Out: av, In: av, Cols: selCols, As: selAs})
		atomVars = append(atomVars, av)
	}
	keys := make([]string, len(t.Rhs.Dims))
	for i, d := range t.Rhs.Dims {
		keys[i] = d.Var
	}
	mcol := "v_" + t.ID
	merged := "pm_" + t.ID
	p.Steps = append(p.Steps,
		PadMerge{Out: merged, X: atomVars[0], Y: atomVars[1], Keys: keys,
			XVal: t.Lhs[0].MVar, YVal: t.Lhs[1].MVar,
			Op: t.PadOp, Default: t.PadDefault, OutCol: mcol},
		SelectCols{Out: p.Result, In: merged,
			Cols: append(append([]string(nil), keys...), mcol),
			As:   append(append([]string(nil), out.DimNames()...), out.Measure)},
	)
	return p, nil
}

// frameVarCols lists the variable column names of atom i's prepared frame.
func frameVarCols(t *mapping.Tgd, i int) []string {
	var out []string
	for _, d := range t.Lhs[i].Dims {
		if d.Var != "" && d.Const == nil {
			out = append(out, d.Var)
		}
	}
	if t.Lhs[i].MVar != "" {
		out = append(out, t.Lhs[i].MVar)
	}
	return out
}

// MTermExpr is the row-wise expression of a tgd's measure term, for the
// frame programs and the ETL runtime's calculator steps.
func MTermExpr(m *mapping.MTerm) (Expr, error) {
	switch m.Kind {
	case mapping.MVar:
		return Col{Name: m.Var}, nil
	case mapping.MConst:
		return Const{V: m.Val}, nil
	case mapping.MApply:
		args := make([]Expr, 0, len(m.Args))
		for _, a := range m.Args {
			e, err := MTermExpr(a)
			if err != nil {
				return nil, err
			}
			args = append(args, e)
		}
		return Apply{Op: m.Op, Args: args, Params: append([]float64(nil), m.Params...)}, nil
	default:
		return nil, fmt.Errorf("unknown measure term kind %d", m.Kind)
	}
}
