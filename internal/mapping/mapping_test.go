package mapping

import (
	"strings"
	"testing"

	"exlengine/internal/exl"
	"exlengine/internal/model"
)

// gdpSource is the paper's running example (Section 2).
const gdpSource = `
cube PDR(d: day, r: string) measure p
cube RGDPPC(q: quarter, r: string) measure g

PQR    := avg(PDR, group by quarter(d) as q, r)
RGDP   := RGDPPC * PQR
GDP    := sum(RGDP, group by q)
GDPT   := stl_t(GDP)
PCHNG  := (GDPT - shift(GDPT, 1)) * 100 / GDPT
`

func analyze(t *testing.T, src string) *exl.Analyzed {
	t.Helper()
	prog, err := exl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func generate(t *testing.T, src string) *Mapping {
	t.Helper()
	m, err := Generate(analyze(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateGDPFused(t *testing.T) {
	m := generate(t, gdpSource)

	// After fusion the mapping has exactly one tgd per paper statement.
	if len(m.Tgds) != 5 {
		t.Fatalf("tgds = %d:\n%s", len(m.Tgds), m)
	}
	if aux := m.AuxRelations(); len(aux) != 0 {
		t.Errorf("auxiliary relations must be fully fused away, got %v", aux)
	}

	want := []string{
		"PDR(d, r, p) → PQR(quarter(d), r, avg(p))",
		"RGDPPC(q, r, g) ∧ PQR(q, r, p) → RGDP(q, r, (g * p))",
		"RGDP(q, r, g) → GDP(q, sum(g))",
		"GDP → GDPT(stl_t(GDP))",
		"GDPT(q, y1) ∧ GDPT(q-1, y2) → PCHNG(q, (((y1 - y2) * 100) / y1))",
	}
	for i, w := range want {
		if got := m.Tgds[i].String(); got != w {
			t.Errorf("tgd %d:\n got  %s\n want %s", i+1, got, w)
		}
	}

	// Kinds and targets.
	kinds := []TgdKind{Aggregation, TupleLevel, Aggregation, BlackBox, TupleLevel}
	targets := []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG"}
	for i, tg := range m.Tgds {
		if tg.Kind != kinds[i] {
			t.Errorf("tgd %d kind = %s, want %s", i+1, tg.Kind, kinds[i])
		}
		if tg.Target() != targets[i] {
			t.Errorf("tgd %d target = %s, want %s", i+1, tg.Target(), targets[i])
		}
	}
}

func TestGenerateGDPNormalized(t *testing.T) {
	m, err := GenerateNormalized(analyze(t, gdpSource))
	if err != nil {
		t.Fatal(err)
	}
	// PCHNG decomposes into shift, sub, mul, div: 3 auxiliary cubes.
	if len(m.Tgds) != 8 {
		t.Fatalf("normalized tgds = %d:\n%s", len(m.Tgds), m)
	}
	aux := m.AuxRelations()
	if len(aux) != 3 {
		t.Fatalf("aux = %v", aux)
	}
	for _, name := range aux {
		if !strings.HasPrefix(name, "_PCHNG_") {
			t.Errorf("aux name %q", name)
		}
		if _, ok := m.Schemas[name]; !ok {
			t.Errorf("aux %s has no schema", name)
		}
	}
	// The shift tgd materializes the +1 on the rhs. Auxiliary cubes are
	// numbered in materialization order, so the innermost shift is _PCHNG_3.
	sh := m.TgdFor("_PCHNG_3")
	if sh == nil || sh.Kind != TupleLevel {
		t.Fatalf("shift tgd = %+v", sh)
	}
	if got := sh.String(); got != "GDPT(q, g) → _PCHNG_3(q+1, g)" {
		t.Errorf("shift tgd = %s", got)
	}
}

func TestCopyTgds(t *testing.T) {
	m := generate(t, gdpSource)
	copies := m.CopyTgds()
	if len(copies) != 2 {
		t.Fatalf("copies = %d", len(copies))
	}
	if got := copies[0].String(); got != "PDR_S(d, r, y) → PDR_T(d, r, y)" {
		t.Errorf("copy tgd = %s", got)
	}
	if copies[0].Kind != Copy {
		t.Error("kind must be Copy")
	}
}

func TestEgds(t *testing.T) {
	m := generate(t, gdpSource)
	if len(m.Egds) != len(m.Schemas) {
		t.Fatalf("egds = %d, schemas = %d", len(m.Egds), len(m.Schemas))
	}
	var gdp *Egd
	for i := range m.Egds {
		if m.Egds[i].Rel == "GDP" {
			gdp = &m.Egds[i]
		}
	}
	if gdp == nil {
		t.Fatal("no egd for GDP")
	}
	if got := gdp.String(); got != "GDP(x1, y1) ∧ GDP(x1, y2) → (y1 = y2)" {
		t.Errorf("egd = %s", got)
	}
}

func TestGenerateScalarVariants(t *testing.T) {
	m := generate(t, `
cube A(t: year) measure v
B := 3 * A
C := A / 2
D := log(2, A)
E := -A
F := pow(A, 3)
`)
	want := map[string]string{
		"B": "A(t, v) → B(t, (3 * v))",
		"C": "A(t, v) → C(t, (v / 2))",
		"D": "A(t, v) → D(t, log(v, 2))",
		"E": "A(t, v) → E(t, (-v))",
		"F": "A(t, v) → F(t, pow(v, 3))",
	}
	for rel, w := range want {
		tg := m.TgdFor(rel)
		if tg == nil {
			t.Errorf("no tgd for %s", rel)
			continue
		}
		if got := tg.String(); got != w {
			t.Errorf("%s:\n got  %s\n want %s", rel, got, w)
		}
	}
}

func TestGenerateCopyStatement(t *testing.T) {
	m := generate(t, "cube A(t: year) measure v\nB := A")
	tg := m.TgdFor("B")
	if tg == nil || tg.Kind != TupleLevel {
		t.Fatalf("tgd = %+v", tg)
	}
	if got := tg.String(); got != "A(t, v) → B(t, v)" {
		t.Errorf("copy stmt tgd = %s", got)
	}
}

func TestGenerateMeasureVarDisambiguation(t *testing.T) {
	// Both operands have measure named v: variables must not collide.
	m := generate(t, `
cube A(t: year) measure v
cube B(t: year) measure v
C := A + B
`)
	tg := m.TgdFor("C")
	if tg.Lhs[0].MVar == tg.Lhs[1].MVar {
		t.Errorf("measure variables collide: %s", tg)
	}
	// A measure named like a dimension must also be disambiguated.
	m = generate(t, `
cube D(t: year) measure t
E := D * 2
`)
	tg = m.TgdFor("E")
	if tg.Lhs[0].MVar == "t" {
		t.Errorf("measure variable shadows dimension: %s", tg)
	}
}

func TestFusionStopsAtBlackBox(t *testing.T) {
	// The operand of a black box is materialized even when auxiliary.
	m := generate(t, `
cube A(t: year) measure v
B := stl_t(A * 2)
`)
	if len(m.Tgds) != 2 {
		t.Fatalf("tgds:\n%s", m)
	}
	if aux := m.AuxRelations(); len(aux) != 1 {
		t.Errorf("black-box operand must stay auxiliary: %v", aux)
	}
	bb := m.TgdFor("B")
	if bb.Kind != BlackBox || bb.Lhs[0].Rel != "_B_1" {
		t.Errorf("blackbox tgd = %s", bb)
	}
}

func TestFusionIntoAggregation(t *testing.T) {
	m := generate(t, `
cube A(t: year, r: string) measure v
B := sum(A * 2, group by t)
`)
	if len(m.Tgds) != 1 {
		t.Fatalf("tgds:\n%s", m)
	}
	tg := m.Tgds[0]
	if tg.Kind != Aggregation || tg.Agg != "sum" {
		t.Fatalf("tgd = %s", tg)
	}
	if got := tg.String(); got != "A(t, r, y) → B(t, sum((y * 2)))" {
		t.Errorf("fused agg tgd = %s", got)
	}
}

func TestFusionSharedAuxNotInlined(t *testing.T) {
	// An auxiliary cube consumed twice must stay materialized.
	m := generate(t, `
cube A(t: year) measure v
B := (A * 2) / (A * 2 + 1)
`)
	// _B_1 := A*2 is used once; _B_2 := _B_1 + 1? No: normalization
	// materializes each subtree separately, so A*2 appears twice as two
	// distinct aux cubes which each fuse away.
	if aux := m.AuxRelations(); len(aux) != 0 {
		t.Errorf("aux = %v\n%s", aux, m)
	}
	tg := m.TgdFor("B")
	if len(tg.Lhs) != 1 {
		t.Errorf("expected single deduped atom, got %s", tg)
	}
}

func TestBlackBoxParamsPrinted(t *testing.T) {
	m := generate(t, "cube A(t: year) measure v\nB := movavg(A, 3)")
	if got := m.TgdFor("B").String(); got != "A → B(movavg(A, 3))" {
		t.Errorf("movavg tgd = %s", got)
	}
}

func TestMappingString(t *testing.T) {
	m := generate(t, gdpSource)
	s := m.String()
	if !strings.Contains(s, "(5) GDPT(q, y1)") {
		t.Errorf("mapping string misses numbered tgds:\n%s", s)
	}
	if !strings.Contains(s, "egds:") {
		t.Errorf("mapping string misses egds:\n%s", s)
	}
}

func TestDimTermString(t *testing.T) {
	v := model.Str("x")
	tests := []struct {
		term DimTerm
		want string
	}{
		{V("q"), "q"},
		{DimTerm{Var: "q", Shift: -1}, "q-1"},
		{DimTerm{Var: "q", Shift: 2}, "q+2"},
		{DimTerm{Var: "t", Func: "quarter"}, "quarter(t)"},
		{DimTerm{Const: &v}, "x"},
	}
	for _, tt := range tests {
		if got := tt.term.String(); got != tt.want {
			t.Errorf("DimTerm = %q, want %q", got, tt.want)
		}
	}
}

func TestMTermHelpers(t *testing.T) {
	m := MApp("div", MApp("mul", MApp("sub", MV("y1"), MV("y2")), MC(100)), MV("y1"))
	if got := m.String(); got != "(((y1 - y2) * 100) / y1)" {
		t.Errorf("MTerm string = %s", got)
	}
	vars := m.Vars(nil)
	if len(vars) != 3 {
		t.Errorf("vars = %v", vars)
	}
	c := m.Clone()
	c.RenameAll(map[string]string{"y1": "z"})
	if strings.Contains(m.String(), "z") {
		t.Error("Clone must not share structure")
	}
	// Simultaneous rename must not chain.
	sw := MApp("sub", MV("a"), MV("b"))
	sw.RenameAll(map[string]string{"a": "b", "b": "a"})
	if got := sw.String(); got != "(b - a)" {
		t.Errorf("swap rename = %s", got)
	}
	// Params render after args.
	lg := &MTerm{Kind: MApply, Op: "log", Args: []*MTerm{MV("y")}, Params: []float64{2}}
	if got := lg.String(); got != "log(y, 2)" {
		t.Errorf("log term = %s", got)
	}
}

func TestTgdClone(t *testing.T) {
	m := generate(t, gdpSource)
	orig := m.TgdFor("PCHNG")
	c := orig.Clone()
	c.Lhs[0].Dims[0].Var = "zzz"
	c.Measure.RenameAll(map[string]string{"y1": "zzz"})
	if strings.Contains(orig.String(), "zzz") {
		t.Error("Clone must be deep")
	}
}

func TestTgdKindString(t *testing.T) {
	for k := Copy; k <= BlackBox; k++ {
		if k.String() == "invalid" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}
