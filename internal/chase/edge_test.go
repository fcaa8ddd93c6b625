package chase

import (
	"strings"
	"testing"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
)

// panelSchema builds A(t: year, r: string) with measure v.
func panelSchema(name string) model.Schema {
	return model.NewSchema(name,
		[]model.Dim{{Name: "t", Type: model.TYear}, {Name: "r", Type: model.TString}}, "v")
}

func panelCube(t *testing.T, vals map[int]map[string]float64) *model.Cube {
	t.Helper()
	c := model.NewCube(panelSchema("A"))
	for y, rs := range vals {
		for r, v := range rs {
			if err := c.Put([]model.Value{model.Per(model.NewAnnual(y)), model.Str(r)}, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestChaseConstantDimensionFilter exercises constant terms in lhs atoms
// (a selection), which the EXL generator never emits but the tgd language
// supports: A(t, "north", v) -> B(t, v).
func TestChaseConstantDimensionFilter(t *testing.T) {
	north := model.Str("north")
	m := &mapping.Mapping{
		Schemas: map[string]model.Schema{
			"A": panelSchema("A"),
			"B": model.NewSchema("B", []model.Dim{{Name: "t", Type: model.TYear}}, "v"),
		},
		Elementary: []string{"A"},
		Tgds: []*mapping.Tgd{{
			ID:   "sel",
			Kind: mapping.TupleLevel,
			Lhs: []mapping.Atom{{Rel: "A",
				Dims: []mapping.DimTerm{mapping.V("t"), {Const: &north}}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("t")}},
			Measure: mapping.MV("v"),
		}},
	}
	a := panelCube(t, map[int]map[string]float64{
		2000: {"north": 1, "south": 2},
		2001: {"south": 3},
	})
	sol, err := New(m).Solve(Instance{"A": a})
	if err != nil {
		t.Fatal(err)
	}
	if sol["B"].Len() != 1 {
		t.Fatalf("B len = %d", sol["B"].Len())
	}
	if got, _ := sol["B"].Get([]model.Value{model.Per(model.NewAnnual(2000))}); got != 1 {
		t.Errorf("B(2000) = %v", got)
	}
}

// TestChaseLhsFunctionNotInvertible: dimension functions over unbound lhs
// variables are rejected rather than silently mis-evaluated.
func TestChaseLhsFunctionNotInvertible(t *testing.T) {
	m := &mapping.Mapping{
		Schemas: map[string]model.Schema{
			"A": model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TDay}}, "v"),
			"B": model.NewSchema("B", []model.Dim{{Name: "t", Type: model.TDay}}, "v"),
		},
		Elementary: []string{"A"},
		Tgds: []*mapping.Tgd{{
			ID:   "bad",
			Kind: mapping.TupleLevel,
			Lhs: []mapping.Atom{{Rel: "A",
				Dims: []mapping.DimTerm{{Var: "t", Func: "quarter"}}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("t")}},
			Measure: mapping.MV("v"),
		}},
	}
	a := model.NewCube(m.Schemas["A"])
	_ = a.Put([]model.Value{model.Per(model.Period{Freq: model.Daily, Ord: 1})}, 1)
	_, err := New(m).Solve(Instance{"A": a})
	if err == nil || !strings.Contains(err.Error(), "not invertible") {
		t.Fatalf("want not-invertible error, got %v", err)
	}
}

// TestChaseMissingOperandRelation: a tgd reading an unknown relation fails
// cleanly.
func TestChaseMissingOperandRelation(t *testing.T) {
	m := &mapping.Mapping{
		Schemas: map[string]model.Schema{
			"B": model.NewSchema("B", []model.Dim{{Name: "t", Type: model.TYear}}, "v"),
		},
		Tgds: []*mapping.Tgd{{
			ID:   "orphan",
			Kind: mapping.TupleLevel,
			Lhs: []mapping.Atom{{Rel: "GHOST",
				Dims: []mapping.DimTerm{mapping.V("t")}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("t")}},
			Measure: mapping.MV("v"),
		}},
	}
	if _, err := New(m).Solve(Instance{}); err == nil {
		t.Fatal("want missing-relation error")
	}
}

// TestChaseCrossProduct: two atoms with no shared variables produce the
// cartesian product of their bindings.
func TestChaseCrossProduct(t *testing.T) {
	mkSeries := func(name string, n int) (*model.Cube, model.Schema) {
		sch := model.NewSchema(name, []model.Dim{{Name: strings.ToLower(name), Type: model.TInt}}, "v")
		c := model.NewCube(sch)
		for i := 0; i < n; i++ {
			_ = c.Put([]model.Value{model.Int(int64(i))}, float64(i+1))
		}
		return c, sch
	}
	a, sa := mkSeries("A", 3)
	b, sb := mkSeries("B", 2)
	m := &mapping.Mapping{
		Schemas: map[string]model.Schema{
			"A": sa, "B": sb,
			"C": model.NewSchema("C", []model.Dim{{Name: "a", Type: model.TInt}, {Name: "b", Type: model.TInt}}, "v"),
		},
		Elementary: []string{"A", "B"},
		Tgds: []*mapping.Tgd{{
			ID:   "cross",
			Kind: mapping.TupleLevel,
			Lhs: []mapping.Atom{
				{Rel: "A", Dims: []mapping.DimTerm{mapping.V("x")}, MVar: "va"},
				{Rel: "B", Dims: []mapping.DimTerm{mapping.V("y")}, MVar: "vb"},
			},
			Rhs:     mapping.Atom{Rel: "C", Dims: []mapping.DimTerm{mapping.V("x"), mapping.V("y")}},
			Measure: mapping.MApp("mul", mapping.MV("va"), mapping.MV("vb")),
		}},
	}
	sol, err := New(m).Solve(Instance{"A": a, "B": b})
	if err != nil {
		t.Fatal(err)
	}
	if sol["C"].Len() != 6 {
		t.Fatalf("C len = %d, want 3x2", sol["C"].Len())
	}
	if got, _ := sol["C"].Get([]model.Value{model.Int(2), model.Int(1)}); got != 6 {
		t.Errorf("C(2,1) = %v", got)
	}
}

// TestChaseRefusesWrongArity: an operator applied to as many arguments as it
// does not take is the plan's error, which fails the chase naming the tgd and
// the operator; pow(y) was once computed as pow(y, y).
func TestChaseRefusesWrongArity(t *testing.T) {
	year := func(name string) model.Schema {
		return model.NewSchema(name, []model.Dim{{Name: "t", Type: model.TYear}}, "v")
	}
	a := model.NewCube(year("A"))
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2000))}, 2)
	apply := func(op string, params ...float64) *mapping.Tgd {
		return &mapping.Tgd{
			ID:      "bad",
			Kind:    mapping.TupleLevel,
			Lhs:     []mapping.Atom{{Rel: "A", Dims: []mapping.DimTerm{mapping.V("t")}, MVar: "y"}},
			Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("t")}},
			Measure: &mapping.MTerm{Kind: mapping.MApply, Op: op, Args: []*mapping.MTerm{mapping.MV("y")}, Params: params},
		}
	}
	pad := &mapping.Tgd{
		ID:    "bad",
		Kind:  mapping.PadVector,
		PadOp: "neg",
		Lhs: []mapping.Atom{
			{Rel: "A", Dims: []mapping.DimTerm{mapping.V("t")}, MVar: "x"},
			{Rel: "A", Dims: []mapping.DimTerm{mapping.V("t")}, MVar: "y"},
		},
		Rhs: mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("t")}},
	}
	for i, tg := range []*mapping.Tgd{apply("pow"), apply("ln", 7, 9), apply("add", 1, 100), pad} {
		m := &mapping.Mapping{
			Schemas:    map[string]model.Schema{"A": year("A"), "B": year("B")},
			Elementary: []string{"A"},
			Tgds:       []*mapping.Tgd{tg},
		}
		s := New(m)
		if s.plans[0].err == nil {
			t.Errorf("case %d: the plan has no error", i)
		}
		if _, err := s.Solve(Instance{"A": a}); err == nil || !strings.Contains(err.Error(), "bad") || !strings.Contains(err.Error(), "neg") && !strings.Contains(err.Error(), "argument") {
			t.Errorf("case %d: got %v, want the wrong arity refused", i, err)
		}
	}
}
