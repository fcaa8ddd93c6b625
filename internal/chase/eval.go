package chase

import (
	"fmt"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// varSet assigns dense indexes to the variables of a tgd so bindings can be
// flat slices instead of maps.
type varSet struct {
	idx   map[string]int
	names []string
}

func newVarSet() *varSet { return &varSet{idx: make(map[string]int)} }

func (v *varSet) add(name string) int {
	if i, ok := v.idx[name]; ok {
		return i
	}
	i := len(v.names)
	v.idx[name] = i
	v.names = append(v.names, name)
	return i
}

func (v *varSet) lookup(name string) (int, bool) {
	i, ok := v.idx[name]
	return i, ok
}

// binding is a partial assignment of values to variables, indexed by
// varSet position. Unassigned slots hold the invalid zero Value.
type binding []model.Value

// evalLhs enumerates all bindings of the tgd's lhs variables: the natural
// join of the lhs atoms on shared variables, with dimension terms (shifts,
// constants, functions of bound variables) acting as computed join keys.
// Atoms are joined left to right using a hash index per atom.
func evalLhs(t *mapping.Tgd, target Instance) ([]binding, *varSet, error) {
	vars := newVarSet()
	for _, a := range t.Lhs {
		for _, d := range a.Dims {
			if d.Var != "" {
				vars.add(d.Var)
			}
		}
		if a.MVar != "" {
			vars.add(a.MVar)
		}
	}

	bindings := []binding{make(binding, len(vars.names))}
	bound := make(map[string]bool)

	for _, atom := range t.Lhs {
		rel, ok := target[atom.Rel]
		if !ok {
			return nil, nil, fmt.Errorf("relation %s not available", atom.Rel)
		}

		// Positions whose term value is computable from the current
		// binding are probe positions; the rest bind new variables.
		var probePos, bindPos []int
		for j, d := range atom.Dims {
			switch {
			case d.Const != nil:
				probePos = append(probePos, j)
			case d.Var != "" && bound[d.Var]:
				probePos = append(probePos, j)
			case d.Func != "":
				return nil, nil, fmt.Errorf("dimension function %s over unbound variable %s in lhs is not invertible", d.Func, d.Var)
			default:
				bindPos = append(bindPos, j)
			}
		}

		// Hash index of the relation on the probe positions' raw values.
		// Built from Ordered (sorted), not ForEach (map order), so the
		// binding enumeration — and with it the fold order of downstream
		// floating-point aggregation — is deterministic run-to-run. Map
		// order once made sum() results differ in the last ulp between
		// runs, which flipped exact-zero tests (x/x at x == 0) downstream.
		index := make(map[string][]model.Tuple)
		keyBuf := make([]model.Value, len(probePos))
		_ = rel.Ordered(func(tu model.Tuple) error {
			for i, p := range probePos {
				keyBuf[i] = tu.Dims[p]
			}
			k := model.EncodeKey(keyBuf)
			index[k] = append(index[k], tu)
			return nil
		})

		var next []binding
		for _, b := range bindings {
			for i, p := range probePos {
				v, err := evalDimTerm(atom.Dims[p], vars, b)
				if err != nil {
					return nil, nil, err
				}
				keyBuf[i] = v
			}
			k := model.EncodeKey(keyBuf)
			for _, tu := range index[k] {
				nb := append(binding(nil), b...)
				ok := true
				for _, p := range bindPos {
					d := atom.Dims[p]
					val := tu.Dims[p]
					if d.Shift != 0 {
						// The term denotes Var+Shift, so Var = value-Shift.
						inv, err := ops.ShiftValue(val, -d.Shift)
						if err != nil {
							return nil, nil, err
						}
						val = inv
					}
					vi, _ := vars.lookup(d.Var)
					if nb[vi].IsValid() {
						// Repeated variable within the atom: must agree.
						if !nb[vi].Equal(val) {
							ok = false
							break
						}
						continue
					}
					nb[vi] = val
				}
				if !ok {
					continue
				}
				if atom.MVar != "" {
					mi, _ := vars.lookup(atom.MVar)
					nb[mi] = model.Num(tu.Measure)
				}
				next = append(next, nb)
			}
		}
		bindings = next

		for _, j := range bindPos {
			if atom.Dims[j].Var != "" {
				bound[atom.Dims[j].Var] = true
			}
		}
		if atom.MVar != "" {
			bound[atom.MVar] = true
		}
		if len(bindings) == 0 {
			break
		}
	}
	return bindings, vars, nil
}

// evalDimTerm computes the value of a dimension term under a binding.
func evalDimTerm(d mapping.DimTerm, vars *varSet, b binding) (model.Value, error) {
	if d.Const != nil {
		return *d.Const, nil
	}
	vi, ok := vars.lookup(d.Var)
	if !ok || !b[vi].IsValid() {
		return model.Value{}, fmt.Errorf("unbound variable %s in dimension term", d.Var)
	}
	v := b[vi]
	if d.Shift != 0 {
		return ops.ShiftValue(v, d.Shift)
	}
	if d.Func != "" {
		f, err := ops.Dimension(d.Func)
		if err != nil {
			return model.Value{}, err
		}
		return f.Apply(v)
	}
	return v, nil
}

// evalRhsDims fills dims with the rhs dimension-term values under b.
func evalRhsDims(terms []mapping.DimTerm, vars *varSet, b binding, dims []model.Value) error {
	for i, d := range terms {
		v, err := evalDimTerm(d, vars, b)
		if err != nil {
			return err
		}
		dims[i] = v
	}
	return nil
}

// evalMeasure evaluates a measure expression under a binding. defined is
// false when a scalar operator hit an undefined point (division by zero,
// log of a non-positive number): per the paper's semantics the result cube
// simply has no tuple there.
func evalMeasure(m *mapping.MTerm, vars *varSet, b binding) (val float64, defined bool, err error) {
	switch m.Kind {
	case mapping.MConst:
		return m.Val, true, nil
	case mapping.MVar:
		vi, ok := vars.lookup(m.Var)
		if !ok || !b[vi].IsValid() {
			return 0, false, fmt.Errorf("unbound measure variable %s", m.Var)
		}
		f, ok := b[vi].AsNumber()
		if !ok {
			return 0, false, fmt.Errorf("measure variable %s bound to non-numeric %v", m.Var, b[vi])
		}
		return f, true, nil
	case mapping.MApply:
		args := make([]float64, 0, len(m.Args)+len(m.Params))
		for _, a := range m.Args {
			v, def, err := evalMeasure(a, vars, b)
			if err != nil || !def {
				return 0, def, err
			}
			args = append(args, v)
		}
		args = append(args, m.Params...)
		f, err := ops.Scalar(m.Op)
		if err != nil {
			return 0, false, err
		}
		v, err := f(args...)
		if err != nil {
			if ops.ErrUndefined(err) {
				return 0, false, nil
			}
			return 0, false, err
		}
		return v, true, nil
	default:
		return 0, false, fmt.Errorf("unknown measure term kind %d", m.Kind)
	}
}
