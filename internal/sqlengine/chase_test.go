package sqlengine_test

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"exlengine/internal/backend"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/sqlengine"
	"exlengine/internal/sqlgen"
	"exlengine/internal/workload"
)

// TestGeneratedShapesMatchChase: the statements sqlgen writes for the GDP
// program's PQR and RGDP — a dimension function grouped with a second key,
// then the result joined with another cube on both keys — give the chase's
// cubes. They run over a version loaded twice, the partition of its key set
// built and then reused, and over a revision on that key set.
func TestGeneratedShapesMatchChase(t *testing.T) {
	m := generate(t, workload.GDPProgram)
	script, err := sqlgen.Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []string{"PQR", "RGDP"}
	var stmts []string
	for _, rel := range shapes {
		for _, st := range script.Steps {
			if st.Target == rel {
				stmts = append(stmts, sqlgen.CreateTableSQL(m.Schemas[rel]), st.SQL)
			}
		}
	}
	if len(stmts) != 2*len(shapes) {
		t.Fatalf("the GDP script has no single step for each of %v:\n%s", shapes, script)
	}

	src := workload.GDPSource(workload.GDPConfig{Days: 400, Regions: 5})
	pdr := src["PDR"].Freeze()
	revision, err := pdr.Derive(pdr.Schema(), func(i int, tu model.Tuple) (float64, bool, error) { return tu.Measure + float64(i%7), true, nil })
	if err != nil {
		t.Fatal(err)
	}
	for run, pdr := range []*model.Cube{pdr, pdr, revision} {
		input := map[string]*model.Cube{"PDR": pdr, "RGDPPC": src["RGDPPC"]}
		ref, err := backend.Run(context.Background(), ops.TargetChase, m, input, nil)
		if err != nil {
			t.Fatal(err)
		}
		db := sqlengine.NewDB()
		for _, c := range input {
			if err := db.LoadCube(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Exec(strings.Join(stmts, ";\n")); err != nil {
			t.Fatal(err)
		}
		for _, rel := range shapes {
			got, err := db.ExtractCube(m.Schemas[rel])
			if err != nil {
				t.Fatal(err)
			}
			if ref[rel].Len() == 0 || !got.Equal(ref[rel], 1e-9) {
				t.Errorf("run %d: %s differs from the chase's %d tuples:\n%s", run, rel, ref[rel].Len(), strings.Join(got.Diff(ref[rel], 1e-9, 5), "\n"))
			}
		}
	}
}

func generate(t *testing.T, src string) *mapping.Mapping {
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

// TestEveryFoldOnEveryArgumentPath: a grouped aggregation folds the version's
// measure column where its argument is that column bare, and an evaluated
// argument otherwise. For every fold, one statement takes each path — the
// measure, an expression of it, two more aggregates of the one column, and
// count(1) — over a fresh key set (groups=hash) and over the same version again
// (groups=partition), and every aggregate gives what the chase gives, bit for
// bit. A table has one measure, count(1) here; the other aggregates are
// dimensions of type VARCHAR, each the shortest text that reads back to its
// bits.
func TestEveryFoldOnEveryArgumentPath(t *testing.T) {
	const by = "group by quarter(d) as q, r)\n"
	for _, agg := range []string{"sum", "avg", "min", "max", "count", "median", "stddev", "prod"} {
		m := generate(t, "cube PDR(d: day, r: string) measure p\n"+
			"A := "+agg+"(PDR, "+by+
			"B := "+agg+"(PDR * 2, "+by+
			"C := avg(PDR, "+by+
			"M := max(PDR, "+by+
			"N := count(PDR, "+by)
		pdr := workload.GDPSource(workload.GDPConfig{Days: 400, Regions: 5})["PDR"].Freeze()
		ref, err := backend.Run(context.Background(), ops.TargetChase, m, map[string]*model.Cube{"PDR": pdr}, nil)
		if err != nil {
			t.Fatal(err)
		}
		script := `CREATE TABLE X (q QUARTER, r VARCHAR, a VARCHAR, b VARCHAR, c VARCHAR, m VARCHAR, n DOUBLE);
INSERT INTO X(q, r, a, b, c, m, n)
SELECT QUARTER(C1.d) AS q, C1.r AS r, ` + strings.ToUpper(agg) + `(C1.p) AS a, ` + strings.ToUpper(agg) + `(C1.p * 2) AS b, AVG(C1.p) AS c, MAX(C1.p) AS m, COUNT(1) AS n
FROM PDR C1
GROUP BY QUARTER(C1.d), C1.r`
		for _, source := range []string{"hash", "partition"} {
			db := sqlengine.NewDB()
			if err := db.LoadCube(pdr); err != nil {
				t.Fatal(err)
			}
			tracer := obs.NewTracer()
			if err := db.ExecContext(obs.ContextWithTracer(context.Background(), tracer), script); err != nil {
				t.Fatal(err)
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
				t.Errorf("%s: sql.exec says groups=%v, want %s", agg, sources, source)
			}
			x, _ := db.Table("X")
			if x.Cube().Len() != ref["A"].Len() {
				t.Fatalf("%s, groups=%s: %d groups, the chase %d", agg, source, x.Cube().Len(), ref["A"].Len())
			}
			for _, tu := range x.Cube().Tuples() {
				for i, rel := range []string{"A", "B", "C", "M", "N"} {
					got := tu.Measure
					if rel != "N" {
						got, _ = strconv.ParseFloat(tu.Dims[2+i].String(), 64)
					}
					want, ok := ref[rel].Get(tu.Dims[:2])
					if !ok || math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s, groups=%s: %s%v is %v, the chase's %v", agg, source, rel, tu.Dims[:2], got, want)
					}
				}
			}
		}
	}
}
