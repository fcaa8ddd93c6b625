package sqlgen

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"exlengine/internal/chase"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/sqlengine"
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

func TestCreateTableSQL(t *testing.T) {
	sch := model.NewSchema("PDR",
		[]model.Dim{{Name: "d", Type: model.TDay}, {Name: "r", Type: model.TString}}, "p")
	got := CreateTableSQL(sch)
	want := "CREATE TABLE PDR (d DAY, r VARCHAR, p DOUBLE)"
	if got != want {
		t.Errorf("CreateTableSQL = %q, want %q", got, want)
	}
}

func TestTgdSQLShapes(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	script, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Steps) != 5 || len(script.DDL) != 5 {
		t.Fatalf("script = %+v", script)
	}

	sqlFor := func(target string) string {
		for _, s := range script.Steps {
			if s.Target == target {
				return s.SQL
			}
		}
		t.Fatalf("no step for %s", target)
		return ""
	}

	// Tgd (1): aggregation with a dimension function.
	pqr := sqlFor("PQR")
	for _, frag := range []string{"INSERT INTO PQR(q, r, p)", "QUARTER(C1.d)", "AVG(C1.p)", "GROUP BY QUARTER(C1.d), C1.r"} {
		if !strings.Contains(pqr, frag) {
			t.Errorf("PQR SQL missing %q:\n%s", frag, pqr)
		}
	}

	// Tgd (2): join generated from the repeated variables.
	rgdp := sqlFor("RGDP")
	for _, frag := range []string{"FROM RGDPPC C1, PQR C2", "C2.q = C1.q", "C2.r = C1.r", "(C1.g * C2.p)"} {
		if !strings.Contains(rgdp, frag) {
			t.Errorf("RGDP SQL missing %q:\n%s", frag, rgdp)
		}
	}

	// Tgd (3): plain aggregation.
	gdp := sqlFor("GDP")
	for _, frag := range []string{"SUM(C1.g)", "GROUP BY C1.q"} {
		if !strings.Contains(gdp, frag) {
			t.Errorf("GDP SQL missing %q:\n%s", frag, gdp)
		}
	}

	// Tgd (4): tabular function, as in the paper's Section 5.1.
	gdpt := sqlFor("GDPT")
	if !strings.Contains(gdpt, "FROM STL_T(GDP)") {
		t.Errorf("GDPT SQL missing tabular function:\n%s", gdpt)
	}

	// Tgd (5): self-join with period arithmetic.
	pchng := sqlFor("PCHNG")
	for _, frag := range []string{"FROM GDPT C1, GDPT C2", "C2.q = C1.q - 1", "* 100)", "/ C1.g"} {
		if !strings.Contains(pchng, frag) {
			t.Errorf("PCHNG SQL missing %q:\n%s", frag, pchng)
		}
	}
}

func TestBlackBoxWithParams(t *testing.T) {
	m := compile(t, "cube A(t: year) measure v\nB := movavg(A, 3)")
	sql, err := TgdSQL(m.TgdFor("B"), m.Schemas)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "FROM MOVAVG(A, 3)") {
		t.Errorf("movavg SQL = %s", sql)
	}
}

// TestCountGuard pins the IS NOT NULL guard on count translations: the
// chase aggregates only defined measure points and emits no tuple for a
// group that is undefined everywhere, so the SQL translation must keep
// such rows out of COUNT's input entirely. Other aggregates are
// NULL-strict and need no guard.
func TestCountGuard(t *testing.T) {
	m := compile(t, "cube A(d: day) measure v\nB := count(A, group by quarter(d) as q)")
	sql, err := TgdSQL(m.TgdFor("B"), m.Schemas)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "C1.v IS NOT NULL") {
		t.Errorf("count SQL missing measure guard:\n%s", sql)
	}
	if !strings.Contains(sql, "COUNT(C1.v)") {
		t.Errorf("count SQL missing aggregate:\n%s", sql)
	}

	m = compile(t, "cube A(d: day) measure v\nB := sum(A, group by quarter(d) as q)")
	sql, err = TgdSQL(m.TgdFor("B"), m.Schemas)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sql, "IS NOT NULL") {
		t.Errorf("sum SQL has a spurious guard:\n%s", sql)
	}
}

// TestSQLMatchesChase is the cross-engine equivalence check: executing the
// generated SQL on the in-memory engine produces exactly the chase solution
// for every derived cube, on all three example programs.
func TestSQLMatchesChase(t *testing.T) {
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

			db := sqlengine.NewDB()
			for _, name := range m.Elementary {
				if err := db.LoadCube(tc.data[name]); err != nil {
					t.Fatal(err)
				}
			}
			script, err := Translate(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := Execute(script, db); err != nil {
				t.Fatal(err)
			}

			for _, rel := range m.Derived {
				got, err := db.ExtractCube(m.Schemas[rel])
				if err != nil {
					t.Fatalf("%s: %v", rel, err)
				}
				if !got.Equal(ref[rel], 1e-6) {
					t.Errorf("%s differs between SQL and chase:\n%s",
						rel, strings.Join(got.Diff(ref[rel], 1e-6, 5), "\n"))
				}
			}
		})
	}
}

func TestSQLNormalizedMatchesChase(t *testing.T) {
	prog, err := exl.Parse(workload.GDPProgram)
	if err != nil {
		t.Fatal(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.GenerateNormalized(a)
	if err != nil {
		t.Fatal(err)
	}
	data := workload.GDPSource(workload.GDPConfig{Days: 150, Regions: 2})

	ref, err := chase.New(m).Solve(chase.Instance(data))
	if err != nil {
		t.Fatal(err)
	}
	db := sqlengine.NewDB()
	for _, name := range m.Elementary {
		if err := db.LoadCube(data[name]); err != nil {
			t.Fatal(err)
		}
	}
	script, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := Execute(script, db); err != nil {
		t.Fatal(err)
	}
	for _, rel := range m.Derived {
		got, err := db.ExtractCube(m.Schemas[rel])
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref[rel], 1e-6) {
			t.Errorf("%s differs (normalized SQL vs chase)", rel)
		}
	}
}

// pollCtx is a context that turns cancelled at its after-th Err poll: a
// caller giving up at a known point inside a statement, with no timer and
// no second goroutine.
type pollCtx struct {
	context.Context
	polls, after int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.after {
		return context.Canceled
	}
	return nil
}

// TestExecuteContextCancelsInsideAStatement: the scan polls the context at
// every batch, so a run cancelled while the PQR statement reads a 200k-tuple
// version stops there — not after the 196 batches the statement has left —
// and the INSERT has appended nothing. That holds where the key set is grouped
// as it goes, and where it was grouped before and the statement folds the
// version's measure column.
func TestExecuteContextCancelsInsideAStatement(t *testing.T) {
	m := compile(t, "cube PDR(d: day, r: string) measure p\nPQR := avg(PDR, group by quarter(d) as q, r)\n")
	pdr := workload.GDPSource(workload.GDPConfig{Days: 10000, Regions: 20})["PDR"].Freeze()
	script, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	load := func() *sqlengine.DB {
		db := sqlengine.NewDB()
		if err := db.LoadCube(pdr); err != nil {
			t.Fatal(err)
		}
		return db
	}
	goroutines := runtime.NumGoroutine()
	for _, source := range []string{"hash", "partition"} {
		db := load()
		tracer := obs.NewTracer()
		ctx := &pollCtx{Context: obs.ContextWithTracer(context.Background(), tracer), after: 50}
		if err := ExecuteContext(ctx, script, db); !errors.Is(err, context.Canceled) {
			t.Fatalf("groups=%s: ExecuteContext under a context cancelled mid-statement = %v, want context.Canceled", source, err)
		}
		// The callers above the scan may ask the context again on the way out;
		// the scan may not go on to the batches it has left, one poll each.
		if ctx.polls > ctx.after+8 {
			t.Errorf("groups=%s: the context was polled %d times, want the run to end within a few polls of number %d", source, ctx.polls, ctx.after)
		}
		if tab, ok := db.Table("PQR"); !ok || tab.Cube().Len() != 0 {
			t.Errorf("groups=%s: PQR after the cancelled INSERT … SELECT: %v, want the table there and empty", source, tab)
		}
		var sources []string
		for _, root := range tracer.Roots() {
			for _, sp := range root.FindAll("sql.exec") {
				if groups, ok := sp.Attr("groups"); ok {
					sources = append(sources, groups)
				}
			}
		}
		if len(sources) != 1 || sources[0] != source {
			t.Errorf("the cancelled statement says groups=%v, want %s", sources, source)
		}
		// A run to the end leaves the key set grouped for the next statement.
		if source == "hash" {
			if err := ExecuteContext(context.Background(), script, load()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The executor starts no goroutine; ones of the runtime's or of another
	// test's that were winding down are given a moment to.
	for i := 0; runtime.NumGoroutine() > goroutines && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the cancelled run, %d before", n, goroutines)
	}
}

func TestScriptString(t *testing.T) {
	m := compile(t, "cube A(t: year) measure v\nB := A * 2")
	script, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	s := script.String()
	if !strings.Contains(s, "CREATE TABLE B") || !strings.Contains(s, "-- t1 -> B") {
		t.Errorf("script:\n%s", s)
	}
}
