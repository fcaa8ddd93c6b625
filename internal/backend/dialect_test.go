package backend_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"exlengine/internal/difftest"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/sqlengine"
	"exlengine/internal/sqlgen"
	"exlengine/internal/workload"
)

// TestGeneratedDialect: the SQL engine runs what sqlgen writes, and refuses
// the forms it never writes. Every program — the GDP example, the
// differential fuzzer's fixed and known cases and the first 200 of its seeded
// programs that SQL can express — is translated as is and normalized with its
// auxiliary relations as views, and each script, as String renders it with
// its -- comments, parses and runs over empty elementary tables, and fills
// each table it creates with one statement, as a table takes one version. So
// does a
// mapping built by hand with the constants no program yields. Each form the
// dialect does not have is refused inside that mapping's INSERT … SELECT,
// before any statement of its script runs.
func TestGeneratedDialect(t *testing.T) {
	exec := func(name string, m *mapping.Mapping, script *sqlgen.Script) *sqlengine.DB {
		t.Helper()
		filled := map[string]bool{}
		for _, st := range script.Steps {
			if filled[st.Target] {
				t.Errorf("%s: two statements fill %s, whose table takes one version", name, st.Target)
			}
			filled[st.Target] = true
		}
		db := sqlengine.NewDB()
		for _, rel := range m.Elementary {
			if err := db.CreateTableFor(m.Schemas[rel]); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Exec(script.String()); err != nil {
			t.Errorf("%s: %v\n%s", name, err, script)
		}
		return db
	}
	// run reports whether the program's plain mapping is translatable.
	run := func(name, src string) bool {
		t.Helper()
		prog, err := exl.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := exl.Analyze(prog, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		translated := false
		for _, form := range []struct {
			name     string
			generate func(*exl.Analyzed) (*mapping.Mapping, error)
			opts     sqlgen.Options
		}{
			{"tables", mapping.Generate, sqlgen.Options{}},
			{"views", mapping.GenerateNormalized, sqlgen.Options{AuxAsViews: true}},
		} {
			m, err := form.generate(a)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, form.name, err)
			}
			script, err := sqlgen.TranslateWith(m, form.opts)
			if errors.Is(err, sqlgen.ErrUntranslatable) {
				continue
			}
			if err != nil {
				t.Fatalf("%s, %s: %v", name, form.name, err)
			}
			translated = translated || !form.opts.AuxAsViews
			exec(name+", "+form.name, m, script)
		}
		return translated
	}

	if !run("gdp", workload.GDPProgram) {
		t.Error("the GDP program is not translatable")
	}
	for _, dir := range []string{"fixed", "known"} {
		cases, err := difftest.LoadKnownCases("../difftest/testdata/" + dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, kc := range cases {
			run(dir+"/"+kc.Name, kc.Case.Source())
		}
	}
	for seed, n := int64(1), 0; n < 200; seed++ {
		if seed > 400 {
			t.Fatalf("only %d of 400 seeded programs are translatable", n)
		}
		if run(fmt.Sprint("seed ", seed), difftest.GenerateCase(seed, 6).Source()) {
			n++
		}
	}

	m, want := constantsMapping()
	script, err := sqlgen.Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	db := exec("constants", m, script)
	if err := db.LoadCube(want.source); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(script.Steps[0].SQL); err != nil {
		t.Fatal(err)
	}
	if got, err := db.ExtractCube(m.Schemas["T"]); err != nil || !got.Equal(want.target, 0) {
		t.Errorf("constants: T = %v (%v), want %v", got, err, want.target)
	}

	step := script.Steps[0].SQL
	insert, sel, _ := strings.Cut(step, "\n")
	for _, form := range []struct{ name, stmt string }{
		{"DELETE", "DELETE FROM T"},
		{"DROP", "DROP TABLE T"},
		{"a bare SELECT", sel},
		{"INSERT … VALUES", insert + " VALUES ('2001-Q2', '2001-Q1', 'x', 1)"},
		{"INSERT without a column list", strings.Replace(step, "T(p, q, r, w)", "T", 1)},
		{"DISTINCT", strings.Replace(step, "SELECT ", "SELECT DISTINCT ", 1)},
		{"ORDER BY", step + " ORDER BY w"},
		{"SELECT *", strings.Replace(step, "C1.q AS p, '2001-Q1' AS q, 'o''brien' AS r, (C1.v * 1e+21) AS w", "*", 1)},
		{"OR", strings.Replace(step, "= 'north'", "= 'north' OR C1.r = 'south'", 1)},
		{"NOT", strings.Replace(step, "C1.r = 'north'", "NOT C1.r = 'north'", 1)},
		{"<>", strings.Replace(step, "= 'north'", "<> 'north'", 1)},
		{"!=", strings.Replace(step, "= 'north'", "!= 'north'", 1)},
		{"<", strings.Replace(step, "= 'north'", "< 'north'", 1)},
		{"<=", strings.Replace(step, "= 'north'", "<= 'north'", 1)},
		{">", strings.Replace(step, "= 'north'", "> 'north'", 1)},
		{">=", strings.Replace(step, "= 'north'", ">= 'north'", 1)},
		{"IS NULL", strings.Replace(step, "= 'north'", "IS NULL", 1)},
		{"NULL", strings.Replace(step, "(C1.v * 1e+21)", "NULL", 1)},
		{"unary +", strings.Replace(step, "(C1.v * 1e+21)", "+C1.v", 1)},
		{"COUNT(*)", strings.Replace(step, "(C1.v * 1e+21)", "COUNT(*)", 1) + " GROUP BY C1.q"},
		{"an implicit alias", strings.Replace(step, "C1.q AS p", "C1.q p", 1)},
		{"a quoted identifier", strings.Replace(step, "C1.r =", `C1."r" =`, 1)},
		{"a .5 number", strings.Replace(step, "1e+21", ".5", 1)},
		{"WHERE as an expression", strings.Replace(step, "C1.r = 'north'", "(C1.r = 'north')", 1)},
	} {
		if form.stmt == step {
			t.Fatalf("%s: the step has no place for it:\n%s", form.name, step)
		}
		db := sqlengine.NewDB()
		if err := db.Exec("CREATE TABLE PROBE (v DOUBLE);\n" + script.String() + form.stmt); err == nil {
			t.Errorf("%s: Exec succeeded; the dialect has no such form:\n%s", form.name, form.stmt)
		}
		if _, ok := db.Table("probe"); ok {
			t.Errorf("%s: a statement of the refused script ran", form.name)
		}
	}
}

// constantsMapping is one tuple-level tgd with the constants mapping.Generate
// never writes: S(north, q, m) → T(q, 2001-Q1, o'brien, m × 1e21), a
// dimension constant in the lhs and two in the rhs, one holding a quote, and a
// measure constant printed with an exponent. It comes with a source cube and
// the target the tgd makes of it.
func constantsMapping() (*mapping.Mapping, struct{ source, target *model.Cube }) {
	north, q1, quoted := model.Str("north"), model.Per(model.NewQuarterly(2001, 1)), model.Str("o'brien")
	s := model.NewSchema("S", []model.Dim{{Name: "r", Type: model.TString}, {Name: "q", Type: model.TQuarter}}, "v")
	tt := model.NewSchema("T", []model.Dim{{Name: "p", Type: model.TQuarter}, {Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "w")
	m := &mapping.Mapping{
		Schemas:    map[string]model.Schema{"S": s, "T": tt},
		Elementary: []string{"S"},
		Derived:    []string{"T"},
		Tgds: []*mapping.Tgd{{
			ID: "t1", Kind: mapping.TupleLevel,
			Lhs:     []mapping.Atom{{Rel: "S", Dims: []mapping.DimTerm{{Const: &north}, mapping.V("q")}, MVar: "m"}},
			Rhs:     mapping.Atom{Rel: "T", Dims: []mapping.DimTerm{mapping.V("q"), {Const: &q1}, {Const: &quoted}}},
			Measure: mapping.MApp("mul", mapping.MV("m"), mapping.MC(1e21)),
		}},
	}
	var c struct{ source, target *model.Cube }
	c.source, c.target = model.NewCube(s), model.NewCube(tt)
	q2 := model.Per(model.NewQuarterly(2001, 2))
	_ = c.source.Put([]model.Value{north, q2}, 2)
	_ = c.source.Put([]model.Value{model.Str("south"), q2}, 3)
	_ = c.target.Put([]model.Value{q2, q1, quoted}, 2e21)
	return m, c
}
