package crosscheck

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"exlengine/internal/backend"
	"exlengine/internal/exlerr"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// TestEgdViolationNamesTheSameTupleOnEveryBackend: a projection that drops a
// dimension without aggregating is not functional. Every backend hands its
// result to the one place the egd is checked (model.Builder), so all four
// fail with model.ErrFunctional — an exlerr.EgdViolation, which the
// dispatcher never degrades — naming the same dimension tuple
// and the same two values: those of the conflict that arrives first in cube
// order. So does an auxiliary relation that violates its egd, on the way to a
// derived cube that would not: every target's relations are cubes.
func TestEgdViolationNamesTheSameTupleOnEveryBackend(t *testing.T) {
	m := &mapping.Mapping{
		Schemas: map[string]model.Schema{
			"A": model.NewSchema("A", []model.Dim{{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "v"),
			"B": model.NewSchema("B", []model.Dim{{Name: "q", Type: model.TQuarter}}, "v"),
		},
		Elementary: []string{"A"},
		Derived:    []string{"B"},
		Tgds: []*mapping.Tgd{{
			ID: "proj", Kind: mapping.TupleLevel,
			Lhs:     []mapping.Atom{{Rel: "A", Dims: []mapping.DimTerm{mapping.V("q"), mapping.V("r")}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("q")}},
			Measure: mapping.MV("v"),
		}},
	}
	// Regions agree in the first two quarters, so the first conflict in cube
	// order is neither the first tuple nor at the first key.
	a := model.NewCube(m.Schemas["A"])
	for q := 0; q < 12; q++ {
		for r := 0; r < 4; r++ {
			v := float64(100 * q)
			if q >= 2 {
				v += float64(r)
			}
			dims := []model.Value{model.Per(model.NewQuarterly(1990, 1).Shift(int64(q))), model.Str(fmt.Sprintf("R%d", r))}
			if err := a.Put(dims, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	src := map[string]*model.Cube{"A": a}
	check := func(name string, m *mapping.Mapping, want string) {
		t.Helper()
		want = "model: functional dependency violation (egd): " + want
		for _, target := range ops.AllTargets {
			_, err := backend.Run(context.Background(), target, m, src, nil)
			if !errors.Is(err, model.ErrFunctional) || exlerr.ClassOf(err) != exlerr.EgdViolation {
				t.Errorf("%s, %s: %v, want an egd violation", name, target, err)
				continue
			}
			if !strings.HasSuffix(err.Error(), want) {
				t.Errorf("%s, %s names another conflict:\n got  %v\n want … %s", name, target, err, want)
			}
		}
	}
	check("B := A(q)", m, "B[1990-Q3] has values 200 and 201")

	// The projection as an auxiliary relation X of B's statement: the
	// violation is X's, whatever B then makes of X — a sum, which would fold
	// the conflicting values into one, or a point-wise product.
	x := model.NewSchema("X", []model.Dim{{Name: "q", Type: model.TQuarter}}, "v")
	for _, tc := range []struct {
		name string
		b    *mapping.Tgd
	}{
		{"B := sum(X, group by q)", &mapping.Tgd{
			ID: "sum", Kind: mapping.Aggregation, Agg: "sum", Stmt: "B",
			Lhs:     []mapping.Atom{{Rel: "X", Dims: []mapping.DimTerm{mapping.V("q")}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("q")}},
			Measure: mapping.MV("v"),
		}},
		{"B := X * 2", &mapping.Tgd{
			ID: "double", Kind: mapping.TupleLevel, Stmt: "B",
			Lhs:     []mapping.Atom{{Rel: "X", Dims: []mapping.DimTerm{mapping.V("q")}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("q")}},
			Measure: mapping.MApp("mul", mapping.MV("v"), mapping.MC(2)),
		}},
	} {
		proj := *m.Tgds[0]
		proj.ID, proj.Rhs.Rel, proj.Stmt, proj.Auxiliary = "aux", "X", "B", true
		aux := &mapping.Mapping{
			Schemas:    map[string]model.Schema{"A": m.Schemas["A"], "X": x, "B": m.Schemas["B"]},
			Elementary: []string{"A"},
			Derived:    []string{"B"},
			Tgds:       []*mapping.Tgd{&proj, tc.b},
		}
		check(tc.name, aux, "X[1990-Q3] has values 200 and 201")
	}
}
