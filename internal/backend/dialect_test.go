package backend_test

import (
	"errors"
	"fmt"
	"testing"

	"exlengine/internal/difftest"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/sqlengine"
	"exlengine/internal/sqlgen"
	"exlengine/internal/workload"
)

// TestGeneratedDialect: the SQL engine runs what sqlgen writes, and refuses
// the statement forms it never writes. Every program — the GDP example, the
// differential fuzzer's fixed and known cases and the first 200 of its seeded
// programs that SQL can express — is translated as is and normalized with its
// auxiliary relations as views; every DDL statement and step of each script
// parses and runs over empty elementary tables.
func TestGeneratedDialect(t *testing.T) {
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
			db := sqlengine.NewDB()
			for _, rel := range m.Elementary {
				if err := db.CreateTableFor(m.Schemas[rel]); err != nil {
					t.Fatal(err)
				}
			}
			if err := sqlgen.Execute(script, db); err != nil {
				t.Errorf("%s, %s: %v\n%s", name, form.name, err, script)
			}
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

	db := sqlengine.NewDB()
	if err := db.Exec("CREATE TABLE T (r VARCHAR, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"DELETE FROM T",
		"DROP TABLE T",
		"SELECT DISTINCT r FROM T",
		"SELECT r, v FROM T ORDER BY v",
		"SELECT * FROM T",
	} {
		if err := db.Exec(stmt); err == nil {
			t.Errorf("Exec(%q) succeeded; the dialect has no such statement", stmt)
		}
	}
}
