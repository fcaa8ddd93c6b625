package sqlengine_test

import (
	"context"
	"errors"
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

// FuzzSQLScript runs any script of at most 4 KiB through DB.ExecContext, over
// a database holding one loaded cube of two tuples, T(k, v): it returns nil or
// an error, never panics, and every table it leaves holds a frozen cube. The
// seeds are the scripts sqlgen writes for the programs TestGeneratedDialect
// runs, in both forms, each after the DDL of its elementary cubes, and calls
// of an operator at a wrong arity.
func FuzzSQLScript(f *testing.F) {
	for _, s := range dialectScripts(f) {
		f.Add(s)
	}
	for _, call := range []string{"pow(v)", "ln(v, 7, 9)", "add(v, 1, 100)"} {
		f.Add("CREATE TABLE R (k VARCHAR, v DOUBLE);\nINSERT INTO R(k, v) SELECT k, " + call + " FROM T")
	}
	sch := model.NewSchema("T", []model.Dim{{Name: "k", Type: model.TString}}, "v")
	b := model.NewBuilder(sch)
	for _, tu := range []model.Tuple{{Dims: []model.Value{model.Str("a")}, Measure: 2}, {Dims: []model.Value{model.Str("b")}, Measure: -1}} {
		if err := b.Add(tu.Dims, tu.Measure); err != nil {
			f.Fatal(err)
		}
	}
	cube, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, script string) {
		if len(script) > 4096 {
			return
		}
		db := sqlengine.NewDB()
		if err := db.LoadCube(cube); err != nil {
			t.Fatal(err)
		}
		_ = db.ExecContext(context.Background(), script)
		for name, tab := range db.Tables() {
			if c := tab.Cube(); c == nil || !c.Frozen() {
				t.Fatalf("table %s holds %v, not a frozen cube", name, c)
			}
		}
	})
}

// dialectScripts returns the scripts of at most 4 KiB sqlgen writes for the GDP
// program, the differential fuzzer's fixed and known cases and the first 200
// of its seeded programs SQL can express, as tables and with auxiliary
// relations as views, each after the DDL of its elementary cubes.
func dialectScripts(tb testing.TB) []string {
	var scripts []string
	add := func(src string) bool {
		prog, err := exl.Parse(src)
		if err != nil {
			tb.Fatal(err)
		}
		a, err := exl.Analyze(prog, nil)
		if err != nil {
			tb.Fatal(err)
		}
		translated := false
		for _, form := range []struct {
			generate func(*exl.Analyzed) (*mapping.Mapping, error)
			opts     sqlgen.Options
		}{
			{mapping.Generate, sqlgen.Options{}},
			{mapping.GenerateNormalized, sqlgen.Options{AuxAsViews: true}},
		} {
			m, err := form.generate(a)
			if err != nil {
				tb.Fatal(err)
			}
			script, err := sqlgen.TranslateWith(m, form.opts)
			if errors.Is(err, sqlgen.ErrUntranslatable) {
				continue
			}
			if err != nil {
				tb.Fatal(err)
			}
			translated = translated || !form.opts.AuxAsViews
			var b strings.Builder
			for _, rel := range m.Elementary {
				b.WriteString(sqlgen.CreateTableSQL(m.Schemas[rel]) + ";\n")
			}
			if s := b.String() + script.String(); len(s) <= 4096 {
				scripts = append(scripts, s)
			}
		}
		return translated
	}
	add(workload.GDPProgram)
	for _, dir := range []string{"fixed", "known"} {
		cases, err := difftest.LoadKnownCases("../difftest/testdata/" + dir)
		if err != nil {
			tb.Fatal(err)
		}
		for _, kc := range cases {
			add(kc.Case.Source())
		}
	}
	for seed, n := int64(1), 0; n < 200 && seed <= 400; seed++ {
		if add(difftest.GenerateCase(seed, 6).Source()) {
			n++
		}
	}
	return scripts
}
