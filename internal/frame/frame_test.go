package frame

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"exlengine/internal/chase"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/workload"
)

func compile(t *testing.T, src string) *mapping.Mapping {
	t.Helper()
	prog, err := exl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// literal returns a frame of the rows given, its columns named cols, each
// column held as computed values, so that a cell may be undefined (NA).
func literal(cols []string, rows ...[]model.Value) *Frame {
	l := &Layout{Names: cols, vals: len(cols)}
	for j := range cols {
		l.cols = append(l.cols, col{src: -1, at: j})
	}
	b := &Batch{}
	for _, r := range rows {
		b.vals = append(b.vals, r...)
		b.N++
	}
	return &Frame{l, b}
}

// rowsOf reads every row of f, a value a column.
func rowsOf(f *Frame) [][]model.Value {
	rows := make([][]model.Value, f.rows.N)
	for i := range rows {
		for c := range f.Names {
			rows[i] = append(rows[i], f.Value(f.rows, i, c))
		}
	}
	return rows
}

// sortedRows reads every row of f, ordered by all columns left to right.
func sortedRows(f *Frame) [][]model.Value {
	rows := rowsOf(f)
	slices.SortFunc(rows, func(a, b []model.Value) int {
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c
			}
		}
		return 0
	})
	return rows
}

func yearCube(t *testing.T, name string, vals map[int]float64) *model.Cube {
	t.Helper()
	c := model.NewCube(model.NewSchema(name, []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
	for y, v := range vals {
		if err := c.Put([]model.Value{model.Per(model.NewAnnual(y))}, v); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestFrameCubeRoundTrip(t *testing.T) {
	c := yearCube(t, "A", map[int]float64{2000: 1, 2001: 2})
	f := FromCube(c)
	if len(f.Names) != 2 || f.Names[0] != "t" || f.Names[1] != "v" {
		t.Fatalf("cols = %v", f.Names)
	}
	back, err := f.ToCube(nil, c.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c, model.Eps) {
		t.Error("round trip lost data")
	}
}

func TestToCubeDropsNA(t *testing.T) {
	f := literal([]string{"t", "v"},
		[]model.Value{model.Per(model.NewAnnual(2000)), model.Num(1)},
		[]model.Value{model.Per(model.NewAnnual(2001)), {}}, // NA measure
		[]model.Value{{}, model.Num(3)},                     // NA dim
	)
	c, err := f.ToCube(nil, model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestMergeStep(t *testing.T) {
	env := Env{
		"X": literal([]string{"q", "r", "p"},
			[]model.Value{model.Int(1), model.Str("n"), model.Num(10)},
			[]model.Value{model.Int(1), model.Str("s"), model.Num(20)},
			[]model.Value{model.Int(2), model.Str("n"), model.Num(30)},
		),
		"Y": literal([]string{"q", "r", "g"},
			[]model.Value{model.Int(1), model.Str("n"), model.Num(2)},
			[]model.Value{model.Int(2), model.Str("n"), model.Num(3)},
			[]model.Value{model.Int(3), model.Str("n"), model.Num(4)},
		),
	}
	if err := runStep(Merge{Out: "Z", X: "X", Y: "Y", By: []string{"q", "r"}}, env, nil); err != nil {
		t.Fatal(err)
	}
	z := env["Z"]
	if len(rowsOf(z)) != 2 {
		t.Fatalf("merge rows = %d", len(rowsOf(z)))
	}
	if len(z.Names) != 4 || z.Names[3] != "g" {
		t.Errorf("merge cols = %v", z.Names)
	}
	// Cross join with empty By.
	if err := runStep(Merge{Out: "W", X: "X", Y: "Y", By: nil}, env, nil); err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(env["W"])) != 9 {
		t.Errorf("cross join rows = %d", len(rowsOf(env["W"])))
	}
}

func TestMapColAndFilter(t *testing.T) {
	env := Env{"F": literal([]string{"a", "b"},
		[]model.Value{model.Num(1), model.Num(2)},
		[]model.Value{model.Num(3), model.Num(0)},
		[]model.Value{model.Num(5), model.Num(4)},
	)}
	// c = a / b: NA where b = 0, and the row is gone, as a calculator drops it.
	if err := runStep(MapCol{Var: "F", Col: "c", E: Apply{Op: "div", Args: []Expr{Col{Name: "a"}, Col{Name: "b"}}}}, env, nil); err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(env["F"])
	if v, _ := rows[0][2].AsNumber(); v != 0.5 {
		t.Errorf("c[0] = %v", rows[0][2])
	}
	if len(rows) != 2 || slices.ContainsFunc(rows, func(r []model.Value) bool { return r[1].Equal(model.Num(0)) }) {
		t.Errorf("division by zero must be NA, and its row gone: %v", rows)
	}
	// Overwrite an existing column.
	if err := runStep(MapCol{Var: "F", Col: "a", E: Const{V: 9}}, env, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := rowsOf(env["F"])[0][0].AsNumber(); v != 9 {
		t.Error("overwrite failed")
	}
	// Filter.
	if err := runStep(Filter{Var: "F", Col: "b", V: model.Num(2)}, env, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(rowsOf(env["F"])); n != 1 {
		t.Errorf("filter rows = %d", n)
	}
}

func TestGroupAggStep(t *testing.T) {
	env := Env{"F": literal([]string{"k", "v"},
		[]model.Value{model.Str("a"), model.Num(1)},
		[]model.Value{model.Str("a"), model.Num(3)},
		[]model.Value{model.Str("b"), model.Num(5)},
		[]model.Value{model.Str("b"), {}}, // NA excluded from bag
	)}
	if err := runStep(GroupAgg{Out: "G", In: "F", By: []string{"k"}, Agg: "avg", ValCol: "v", OutCol: "m"}, env, nil); err != nil {
		t.Fatal(err)
	}
	g := sortedRows(env["G"])
	if len(g) != 2 {
		t.Fatalf("groups = %d", len(g))
	}
	if v, _ := g[0][1].AsNumber(); v != 2 {
		t.Errorf("avg a = %v", g[0][1])
	}
	if v, _ := g[1][1].AsNumber(); v != 5 {
		t.Errorf("avg b = %v", g[1][1])
	}
}

func TestSeriesOpStep(t *testing.T) {
	env := Env{"S": literal([]string{"t", "v"},
		[]model.Value{model.Per(model.NewAnnual(2002)), model.Num(3)},
		[]model.Value{model.Per(model.NewAnnual(2000)), model.Num(1)},
		[]model.Value{model.Per(model.NewAnnual(2001)), model.Num(2)},
	)}
	if err := runStep(SeriesOp{Out: "C", In: "S", Op: "cumsum", TimeCol: "t", ValCol: "v"}, env, nil); err != nil {
		t.Fatal(err)
	}
	c := rowsOf(env["C"])
	if len(c) != 3 {
		t.Fatal("rows")
	}
	// Sorted chronologically before the cumulative sum.
	if v, _ := c[2][1].AsNumber(); v != 6 {
		t.Errorf("cumsum = %v", c)
	}
}

func TestStepErrors(t *testing.T) {
	env := Env{}
	bad := []Step{
		Copy{Out: "X", In: "NOPE"},
		Filter{Var: "F", Col: "zz"},
		SelectCols{Out: "X", In: "F", Cols: []string{"zz"}},
		Merge{Out: "X", X: "F", Y: "F", By: []string{"zz"}},
		GroupAgg{Out: "X", In: "F", By: []string{"zz"}, Agg: "sum", ValCol: "a"},
		GroupAgg{Out: "X", In: "F", By: nil, Agg: "nosuch", ValCol: "a"},
		SeriesOp{Out: "X", In: "F", Op: "cumsum", TimeCol: "zz", ValCol: "a"},
		MapCol{Var: "F", Col: "x", E: Col{Name: "zz"}},
	}
	for i, s := range bad {
		env["F"] = literal([]string{"a"}, []model.Value{model.Num(1)})
		if err := runStep(s, env, nil); err == nil {
			t.Errorf("step %d: want error", i)
		}
	}
}

// TestFrameMatchesChase validates the frame target against the chase on
// all three example programs.
func TestFrameMatchesChase(t *testing.T) {
	cases := []struct {
		name string
		prog string
		data workload.Data
	}{
		{"gdp", workload.GDPProgram, workload.GDPSource(workload.GDPConfig{Days: 400, Regions: 4})},
		{"inflation", workload.InflationProgram, workload.InflationSource(6, 30, 2)},
		{"supervision", workload.SupervisionProgram, workload.SupervisionSource(8, 16, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := compile(t, tc.prog)
			ref, err := chase.New(m).Solve(chase.Instance(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			script, err := Translate(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ExecuteContext(context.Background(), script, m, tc.data, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range m.Derived {
				if !got[rel].Equal(ref[rel], 1e-6) {
					t.Errorf("%s differs between frame and chase:\n%s",
						rel, strings.Join(got[rel].Diff(ref[rel], 1e-6, 5), "\n"))
				}
			}
		})
	}
}

func TestTranslateTgdShapes(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	script, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Programs) != 5 {
		t.Fatalf("programs = %d", len(script.Programs))
	}
	// The vectorial product has a Merge step on q and r.
	var rgdp *Program
	for _, p := range script.Programs {
		if p.Target == "RGDP" {
			rgdp = p
		}
	}
	foundMerge := false
	for _, s := range rgdp.Steps {
		if mg, ok := s.(Merge); ok {
			foundMerge = true
			if len(mg.By) != 2 {
				t.Errorf("merge by = %v", mg.By)
			}
		}
	}
	if !foundMerge {
		t.Error("RGDP program must contain a Merge step")
	}
	// The black box becomes a SeriesOp.
	var gdpt *Program
	for _, p := range script.Programs {
		if p.Target == "GDPT" {
			gdpt = p
		}
	}
	if _, ok := gdpt.Steps[0].(SeriesOp); !ok {
		t.Errorf("GDPT program starts with %T", gdpt.Steps[0])
	}
}

// TestFrameExprErrors: what names nothing, and an operator given as many
// arguments as it does not take, fails when the expression is bound, before
// any row is read; a type error fails at the row.
func TestFrameExprErrors(t *testing.T) {
	cols := []string{"a"}
	for name, e := range map[string]Expr{
		"unknown column":             Col{Name: "zz"},
		"unknown operator":           Apply{Op: "nosuch", Args: []Expr{Const{V: 1}}},
		"unknown dimension function": DimApply{Fn: "week", X: Col{Name: "a"}},
		"pow of one argument":        Apply{Op: "pow", Args: []Expr{Col{Name: "a"}}},
		"ln of three arguments":      Apply{Op: "ln", Args: []Expr{Col{Name: "a"}}, Params: []float64{7, 9}},
		"add of three arguments":     Apply{Op: "add", Args: []Expr{Col{Name: "a"}}, Params: []float64{1, 100}},
		"ln of no argument":          Apply{Op: "ln"},
	} {
		if _, err := Bind(e, cols); err == nil {
			t.Errorf("%s: binding must fail", name)
		}
	}
	for name, e := range map[string]Expr{
		"arithmetic over a string": Apply{Op: "add", Args: []Expr{Col{Name: "a"}, Const{V: 1}}},
		"quarter of a string":      DimApply{Fn: "quarter", X: Col{Name: "a"}},
		"shift of a string":        PShift{X: Col{Name: "a"}, N: 1},
	} {
		eval, err := Bind(e, cols)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := eval([]model.Value{model.Str("x")}); err == nil {
			t.Errorf("%s must fail at the row", name)
		}
	}
}

// TestFrameSortAndClone: a frame's rows read in order of their values, and a
// copy is not changed by a step over the frame it copied.
func TestFrameSortAndClone(t *testing.T) {
	env := Env{"F": literal([]string{"a"}, []model.Value{model.Num(2)}, []model.Value{model.Num(1)})}
	if err := runStep(Copy{Out: "C", In: "F"}, env, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := sortedRows(env["F"])[0][0].AsNumber(); v != 1 {
		t.Error("sort")
	}
	if err := runStep(Filter{Var: "F", Col: "a", V: model.Num(1)}, env, nil); err != nil {
		t.Fatal(err)
	}
	if c := rowsOf(env["C"]); len(c) != 2 {
		t.Errorf("copy has %d rows, want 2", len(c))
	} else if v, _ := c[0][0].AsNumber(); v != 2 {
		t.Error("clone must be independent")
	}
}

// TestRunContextCancelled: a program run under a context already cancelled
// runs no step. It returns the context's error and binds no step's output.
func TestRunContextCancelled(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	script, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{}
	for name, c := range workload.GDPSource(workload.GDPConfig{Days: 40, Regions: 2}) {
		env[name] = FromCube(c)
	}
	inputs := len(env)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range script.Programs {
		if _, err := p.RunContext(ctx, env); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", p.TgdID, err)
		}
	}
	if len(env) != inputs {
		t.Errorf("a cancelled run bound %d frames", len(env)-inputs)
	}
}
