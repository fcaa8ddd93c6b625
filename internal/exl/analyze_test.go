package exl

import (
	"strings"
	"testing"

	"exlengine/internal/model"
)

func analyzeSrc(t *testing.T, src string) *Analyzed {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func analyzeErr(t *testing.T, src string) error {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse of %q failed before analysis: %v", src, err)
	}
	_, err = Analyze(prog, nil)
	if err == nil {
		t.Fatalf("Analyze(%q): want error", src)
	}
	return err
}

func TestAnalyzeGDP(t *testing.T) {
	a := analyzeSrc(t, gdpSource)

	if len(a.Elementary) != 2 || a.Elementary[0] != "PDR" || a.Elementary[1] != "RGDPPC" {
		t.Errorf("elementary = %v", a.Elementary)
	}
	wantDerived := []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG"}
	if len(a.Derived) != len(wantDerived) {
		t.Fatalf("derived = %v", a.Derived)
	}
	for i, d := range wantDerived {
		if a.Derived[i] != d {
			t.Errorf("derived[%d] = %s, want %s", i, a.Derived[i], d)
		}
	}

	// Schema inference.
	cases := map[string]string{
		"PQR":   "PQR(q: quarter, r: string)",
		"RGDP":  "RGDP(q: quarter, r: string)",
		"GDP":   "GDP(q: quarter)",
		"GDPT":  "GDPT(q: quarter)",
		"PCHNG": "PCHNG(q: quarter)",
	}
	for name, want := range cases {
		if got := a.Schemas[name].String(); got != want {
			t.Errorf("schema %s = %s, want %s", name, got, want)
		}
	}

	if !a.IsElementary("PDR") || a.IsElementary("GDP") || a.IsElementary("NOPE") {
		t.Error("IsElementary misbehaves")
	}
	if a.StatementFor("GDP") == nil || a.StatementFor("PDR") != nil {
		t.Error("StatementFor misbehaves")
	}

	// Typed tree shape for PQR: aggregation over PDR with quarter(d)->q, r.
	pqr := a.Stmts[0].Expr
	if pqr.Kind != AAgg || pqr.Op != "avg" || pqr.Arg.Kind != ACube || pqr.Arg.Cube != "PDR" {
		t.Fatalf("PQR tree = %+v", pqr)
	}
	if pqr.GroupBy[0].Func != "quarter" || pqr.GroupBy[0].Name != "q" || pqr.GroupBy[0].DimIndex != 0 {
		t.Errorf("group item 0 = %+v", pqr.GroupBy[0])
	}
	if pqr.GroupBy[1].Func != "" || pqr.GroupBy[1].Name != "r" || pqr.GroupBy[1].DimIndex != 1 {
		t.Errorf("group item 1 = %+v", pqr.GroupBy[1])
	}

	// RGDP: vectorial product of two cubes.
	rgdp := a.Stmts[1].Expr
	if rgdp.Kind != ABinary || rgdp.Op != "mul" || rgdp.X.Cube != "RGDPPC" || rgdp.Y.Cube != "PQR" {
		t.Fatalf("RGDP tree = %+v", rgdp)
	}

	// GDPT: black box over a time series.
	gdpt := a.Stmts[3].Expr
	if gdpt.Kind != ABlackBox || gdpt.Op != "stl_t" {
		t.Fatalf("GDPT tree = %+v", gdpt)
	}

	// PCHNG: ((GDPT - shift(GDPT,1)) * 100) / GDPT.
	pchng := a.Stmts[4].Expr
	if pchng.Kind != ABinary || pchng.Op != "div" {
		t.Fatalf("PCHNG tree = %+v", pchng)
	}
	mul := pchng.X
	if mul.Kind != ABinary || mul.Op != "mul" || mul.Y.Kind != AConst || mul.Y.Val != 100 {
		t.Fatalf("PCHNG mul = %+v", mul)
	}
	sub := mul.X
	if sub.Kind != ABinary || sub.Op != "sub" {
		t.Fatalf("PCHNG sub = %+v", sub)
	}
	sh := sub.Y
	if sh.Kind != AShift || sh.ShiftBy != 1 || sh.ShiftDim != 0 {
		t.Fatalf("shift = %+v", sh)
	}
}

func TestAnalyzeExternalSchemas(t *testing.T) {
	prog, err := Parse("B := A * 2")
	if err != nil {
		t.Fatal(err)
	}
	ext := map[string]model.Schema{
		"A": model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TMonth}}, "v"),
	}
	a, err := Analyze(prog, ext)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schemas["B"].String() != "B(t: month)" {
		t.Errorf("B schema = %s", a.Schemas["B"])
	}
	if !a.IsElementary("A") {
		t.Error("external cube must be elementary")
	}
}

func TestAnalyzeConstantFolding(t *testing.T) {
	a := analyzeSrc(t, `
cube A(t: year)
B := A * (2 + 3 * 4)
C := A + log(2, 8)
D := -A
`)
	b := a.Stmts[0].Expr
	if b.Y.Kind != AConst || b.Y.Val != 14 {
		t.Errorf("folded const = %+v", b.Y)
	}
	c := a.Stmts[1].Expr
	if c.Y.Kind != AConst || c.Y.Val != 3 {
		t.Errorf("log(2,8) should fold to 3: %+v", c.Y)
	}
	d := a.Stmts[2].Expr
	if d.Kind != AScalarFunc || d.Op != "neg" {
		t.Errorf("unary minus = %+v", d)
	}
}

func TestAnalyzeScalarParams(t *testing.T) {
	a := analyzeSrc(t, `
cube EL(t: year)
X := log(2, EL * 3)
Y := pow(EL, 2)
`)
	x := a.Stmts[0].Expr
	if x.Kind != AScalarFunc || x.Op != "log" || len(x.Params) != 1 || x.Params[0] != 2 {
		t.Fatalf("log tree = %+v", x)
	}
	if x.Arg.Kind != ABinary {
		t.Errorf("log operand = %+v", x.Arg)
	}
	y := a.Stmts[1].Expr
	if y.Op != "pow" || y.Params[0] != 2 {
		t.Errorf("pow tree = %+v", y)
	}
}

func TestAnalyzeVectorDimMatching(t *testing.T) {
	// Same dimensions in different order are fine (joined by name).
	a := analyzeSrc(t, `
cube A(x: string, y: int)
cube B(y: int, x: string)
C := A + B
`)
	if got := a.Schemas["C"].String(); got != "C(x: string, y: int)" {
		t.Errorf("C schema = %s", got)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"A := B", "unknown cube B"},
		{"cube A(t: year)\nA := A + 1", "more than once"},
		{"cube A(t: year)\nB := A\nB := A", "more than once"},
		{"B := 3 + 4", "defines a constant"},
		{"cube A(t: year)\nB := A / 0", "undefined"},
		{"cube A(t: year)\nB := A + 1e200 * 1e200", "constant expression is undefined"},
		{"cube A(t: nonsense)\nB := A", "unknown dimension type"},
		{"cube A(t: year, t: year)\nB := A", "duplicate dimension"},
		{"cube A(t: year)\ncube B(s: year)\nC := A + B", "same dimensions"},
		{"cube A(t: year)\ncube B(t: month)\nC := A + B", "has type"},
		{"cube A(t: year, r: string)\ncube B(t: year, s: string)\nC := A + B", "same dimensions"},
		{"cube A(t: year)\nB := ln(A, 3)", "expects 1 argument"},
		{"cube A(t: year)\nB := log(A, A)", "must be a constant"},
		{"cube A(t: year)\nB := shift(A, 1.5)", "integer constant"},
		{"cube A(t: year)\nB := shift(A)", "expects (expression, steps)"},
		{"cube A(t: year)\nB := shift(3, 1)", "must be a cube"},
		{"cube A(r: string)\nB := shift(A, 1)", "time or numeric dimension"},
		{"cube A(t: year, s: year)\nB := shift(A, 1)", "ambiguous"},
		{"cube A(x: int, y: int)\nB := shift(A, 1)", "ambiguous"},
		{"cube A(t: year)\nB := sum(A, A)", "expects one cube operand"},
		{"cube A(t: year)\nB := sum(3, group by t)", "must be a cube"},
		{"cube A(t: year)\nB := sum(A, group by z)", "not found"},
		{"cube A(t: year)\nB := sum(A, group by quarter(t))", "finer frequency"},
		{"cube A(r: string)\nB := sum(A, group by year(r))", "needs a time dimension"},
		{"cube A(t: year)\nB := sum(A, group by t, t)", "duplicate result dimension"},
		{"cube A(t: year)\nB := sum(A, group by nosuch(t))", "unknown dimension operator"},
		{"cube A(t: year, r: string)\nB := stl_t(A)", "operates on time series"},
		{"cube A(t: year)\nB := stl_t(3)", "must be a cube"},
		{"cube A(t: year)\nB := stl_t(A, 1)", "expects 1 argument"},
		{"cube A(t: year)\nB := movavg(A, A)", "must be constants"},
		{"cube A(t: year)\nB := frobnicate(A)", "unknown operator"},
		{"cube A(t: year)\nB := quarter(A)", "only allowed inside group-by"},
		{"cube A(t: year)\nB := vsum0(A)", "expects two cube operands"},
		{"cube A(t: year)\nB := vsum0(A, 3)", "must be cube expressions"},
		{"cube A(t: year)\ncube C(t: year, r: string)\nB := vsum0(A, C)", "identical dimensions"},
		{"cube A(t: year)\ncube C(s: year)\nB := vsub0(A, C)", "identical dimensions"},
		{"cube A(t: year)\nB := ln(-A * 0 - 1) * A", ""},
	}
	for _, c := range cases {
		if c.wantSub == "" {
			// Marked cases must analyze fine (regression guards).
			analyzeSrc(t, c.src)
			continue
		}
		err := analyzeErr(t, c.src)
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Analyze(%q) error = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestAnalyzeBroadcast(t *testing.T) {
	// A smaller cube broadcasts over the missing dimensions; the result
	// has the superset schema, whichever side it is on.
	a := analyzeSrc(t, `
cube ASSETS(q: quarter, b: string)
SYS   := sum(ASSETS, group by q)
SHARE := ASSETS / SYS * 100
INV   := SYS / ASSETS
`)
	if got := a.Schemas["SHARE"].String(); got != "SHARE(q: quarter, b: string)" {
		t.Errorf("SHARE schema = %s", got)
	}
	if got := a.Schemas["INV"].String(); got != "INV(q: quarter, b: string)" {
		t.Errorf("INV schema = %s", got)
	}
}

func TestAnalyzeAggWithoutGroupBy(t *testing.T) {
	a := analyzeSrc(t, "cube A(t: year, r: string)\nTOT := sum(A)")
	if got := len(a.Schemas["TOT"].Dims); got != 0 {
		t.Errorf("TOT should be 0-dimensional, has %d dims", got)
	}
}

func TestAnalyzeShiftOnIntDimension(t *testing.T) {
	a := analyzeSrc(t, "cube A(i: int)\nB := shift(A, 2)")
	e := a.Stmts[0].Expr
	if e.Kind != AShift || e.ShiftDim != 0 || e.ShiftBy != 2 {
		t.Errorf("int shift = %+v", e)
	}
}

func TestAnalyzeNestedAggregationOperand(t *testing.T) {
	// Aggregating a compound expression (not just a cube literal).
	a := analyzeSrc(t, `
cube A(t: year, r: string)
B := sum(A * 2, group by t)
`)
	e := a.Stmts[0].Expr
	if e.Kind != AAgg || e.Arg.Kind != ABinary {
		t.Fatalf("tree = %+v", e)
	}
	if a.Schemas["B"].String() != "B(t: year)" {
		t.Errorf("B schema = %s", a.Schemas["B"])
	}
}

func TestAnalyzeGroupByDefaultName(t *testing.T) {
	a := analyzeSrc(t, "cube A(d: day, r: string)\nB := avg(A, group by quarter(d), r)")
	sch := a.Schemas["B"]
	if sch.String() != "B(d: quarter, r: string)" {
		t.Errorf("default group name: %s", sch)
	}
}
