package etl

import (
	"fmt"
	"slices"

	"exlengine/internal/frame"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
)

// Translate renders a whole mapping as an ETL job: one flow per tgd,
// composed in the tgds' total order.
func Translate(m *mapping.Mapping, name string) (*Job, error) {
	job := &Job{Name: name}
	for _, t := range m.Tgds {
		f, err := TranslateTgd(t, m.Schemas)
		if err != nil {
			return nil, fmt.Errorf("etl: tgd %s: %w", t.ID, err)
		}
		job.Flows = append(job.Flows, f)
	}
	return job, nil
}

// TranslateTgd builds the flow for one tgd, with the Figure 1 shape: one
// data source step per lhs atom, a cascade of merge steps on shared
// variables, a calculation step for the rhs, an aggregation step when
// grouping is needed, and an output step.
func TranslateTgd(t *mapping.Tgd, schemas map[string]model.Schema) (*Flow, error) {
	out, ok := schemas[t.Rhs.Rel]
	if !ok {
		return nil, fmt.Errorf("no schema for %s", t.Rhs.Rel)
	}
	// Room for every step and hop at once: an input and a merge an atom (one
	// merge fewer), a calculation, an aggregation, an output.
	n := len(t.Lhs)
	f := &Flow{TgdID: t.ID, Target: t.Target(), Steps: make([]Step, 0, 2*n+2), Hops: make([]Hop, 0, 2*n+1)}

	if t.Kind == mapping.BlackBox {
		in, ok := schemas[t.Lhs[0].Rel]
		if !ok {
			return nil, fmt.Errorf("no schema for %s", t.Lhs[0].Rel)
		}
		f.Steps = append(f.Steps,
			Step{Name: "in", Type: TableInput, Table: t.Lhs[0].Rel,
				Fields: []string{in.Dims[0].Name, in.Measure},
				As:     []string{in.Dims[0].Name, in.Measure}},
			Step{Name: "series", Type: SeriesCalc, Op: t.BB, Params: t.BBParams,
				TimeField: in.Dims[0].Name, ValueField: in.Measure},
		)
		f.Hops = []Hop{{From: "in", To: "series"}}
		return addOutput(t, f, out, "series", []string{in.Dims[0].Name, in.Measure}), nil
	}

	if t.Kind == mapping.PadVector {
		return translatePadJoin(t, schemas, f, out)
	}

	// One data source step per lhs atom.
	if err := addInputs(t, schemas, f); err != nil {
		return nil, err
	}

	// Merge cascade on shared variables.
	cur := f.Steps[0].Name
	curCols := slices.Clone(f.Steps[0].As)
	for i := 1; i < len(t.Lhs); i++ {
		atomCols := f.Steps[i].As
		var keys []string
		for _, c := range atomCols {
			if slices.Contains(curCols, c) {
				keys = append(keys, c)
			}
		}
		for _, c := range atomCols {
			if !slices.Contains(curCols, c) {
				curCols = append(curCols, c)
			}
		}
		mj := Step{Name: fmt.Sprintf("merge%d", i), Type: MergeJoin,
			Left: cur, Right: f.Steps[i].Name, Keys: keys}
		f.Steps = append(f.Steps, mj)
		f.Hops = append(f.Hops, Hop{From: cur, To: mj.Name}, Hop{From: f.Steps[i].Name, To: mj.Name})
		cur = mj.Name
	}

	// Calculation step: rhs dimension terms and the measure expression.
	// Calculated field names must not collide with the stream's variable
	// columns (e.g. a dimension variable literally named "m").
	taken := make(map[string]bool)
	for _, c := range curCols {
		taken[c] = true
	}
	fresh := func(base string) string {
		name := base
		for n := 2; taken[name]; n++ {
			name = fmt.Sprintf("%s%d", base, n)
		}
		taken[name] = true
		return name
	}
	calc := Step{Name: "calc", Type: Calculator}
	var dimFields []string
	for k, d := range t.Rhs.Dims {
		field := fresh(fmt.Sprintf("d%d", k+1))
		var e frame.Expr
		switch {
		case d.Const != nil:
			return nil, fmt.Errorf("constant rhs dimensions are not supported")
		case d.Func != "":
			e = frame.DimApply{Fn: d.Func, X: frame.Col{Name: d.Var}}
		case d.Shift != 0:
			e = frame.PShift{X: frame.Col{Name: d.Var}, N: d.Shift}
		default:
			e = frame.Col{Name: d.Var}
		}
		calc.Calcs = append(calc.Calcs, Calc{Field: field, Display: d.String(), expr: e})
		dimFields = append(dimFields, field)
	}
	me, err := frame.MTermExpr(t.Measure)
	if err != nil {
		return nil, err
	}
	mField := fresh("m")
	calc.Calcs = append(calc.Calcs, Calc{Field: mField, Display: t.Measure.String(), expr: me})
	f.Steps = append(f.Steps, calc)
	f.Hops = append(f.Hops, Hop{From: cur, To: "calc"})
	cur = "calc"

	if t.Kind == mapping.Aggregation {
		agg := Step{Name: "agg", Type: Aggregator, Keys: dimFields,
			Agg: t.Agg, ValueField: mField, OutField: mField}
		f.Steps = append(f.Steps, agg)
		f.Hops = append(f.Hops, Hop{From: cur, To: "agg"})
		cur = "agg"
	}

	return addOutput(t, f, out, cur, append(slices.Clone(dimFields), mField)), nil
}

// translatePadJoin builds the flow for a padded vectorial tgd: two data
// source steps feed a pad_join step that ranges over the union of their
// dimension tuples.
func translatePadJoin(t *mapping.Tgd, schemas map[string]model.Schema, f *Flow, out model.Schema) (*Flow, error) {
	for _, atom := range t.Lhs {
		for _, d := range atom.Dims {
			if d.Const != nil || d.Func != "" || d.Shift != 0 {
				return nil, fmt.Errorf("padded tgds require plain variable atoms")
			}
		}
	}
	if err := addInputs(t, schemas, f); err != nil {
		return nil, err
	}
	keys := make([]string, len(t.Rhs.Dims))
	for i, d := range t.Rhs.Dims {
		keys[i] = d.Var
	}
	f.Steps = append(f.Steps, Step{Name: "pad", Type: PadJoin, Left: "in1", Right: "in2",
		Keys: keys, Op: t.PadOp, Default: t.PadDefault,
		ValueField: t.Lhs[0].MVar, RightField: t.Lhs[1].MVar, OutField: "m"})
	f.Hops = append(f.Hops, Hop{From: "in1", To: "pad"}, Hop{From: "in2", To: "pad"})
	return addOutput(t, f, out, "pad", append(keys, "m")), nil
}

// addOutput adds the output step, fed by the step from, writing the fields of
// its stream as the dimensions and the measure of out.
func addOutput(t *mapping.Tgd, f *Flow, out model.Schema, from string, fields []string) *Flow {
	f.Steps = append(f.Steps, Step{Name: "out", Type: TableOutput, Table: t.Rhs.Rel,
		Fields: fields, As: append(out.DimNames(), out.Measure)})
	f.Hops = append(f.Hops, Hop{From: from, To: "out"})
	return f
}

// addInputs adds a data source step per lhs atom, with variable naming, key
// shifts and constant filters folded into the step metadata.
func addInputs(t *mapping.Tgd, schemas map[string]model.Schema, f *Flow) error {
	for i, atom := range t.Lhs {
		sch, ok := schemas[atom.Rel]
		if !ok {
			return fmt.Errorf("no schema for %s", atom.Rel)
		}
		st := Step{Name: fmt.Sprintf("in%d", i+1), Type: TableInput, Table: atom.Rel}
		seen := make(map[string]bool)
		for j, d := range atom.Dims {
			switch {
			case d.Const != nil:
				if st.FilterField != "" {
					return fmt.Errorf("multiple constant dimensions in one atom are not supported")
				}
				st.FilterField = sch.Dims[j].Name
				st.FilterValue = d.Const.String()
				st.filterVal = *d.Const
			case d.Func != "":
				return fmt.Errorf("dimension function %s in lhs is not translatable", d.Func)
			default:
				if seen[d.Var] {
					return fmt.Errorf("repeated variable %s within an atom is not supported", d.Var)
				}
				seen[d.Var] = true
				// Stored value is Var+Shift, so the key column Var is the
				// stored value shifted by -Shift.
				st.Fields, st.As, st.Shifts = append(st.Fields, sch.Dims[j].Name), append(st.As, d.Var), append(st.Shifts, -d.Shift)
			}
		}
		if atom.MVar != "" {
			st.Fields, st.As, st.Shifts = append(st.Fields, sch.Measure), append(st.As, atom.MVar), append(st.Shifts, 0)
		}
		f.Steps = append(f.Steps, st)
	}
	return nil
}
