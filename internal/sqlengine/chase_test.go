package sqlengine_test

import (
	"context"
	"strings"
	"testing"

	"exlengine/internal/backend"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
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
	prog, err := exl.Parse(workload.GDPProgram)
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
		ref, err := backend.Run(context.Background(), ops.TargetChase, m, input)
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
