package sqlengine

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"exlengine/internal/model"
	"exlengine/internal/workload"
)

// Tables bulk-loaded from a cube hold only columns until rows are asked
// for. These tests drive every consumer of rows against such tables.

func monthlyPDRSchema(name string) model.Schema {
	return model.NewSchema(name, []model.Dim{
		{Name: "d", Type: model.TMonth}, {Name: "r", Type: model.TString}}, "v")
}

// parityCubes is the parityDB fixture as cubes.
func parityCubes(t *testing.T) (pdr, rate *model.Cube) {
	t.Helper()
	pdr = model.NewCube(monthlyPDRSchema("PDR"))
	rate = model.NewCube(model.NewSchema("RATE", []model.Dim{
		{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "x"))
	for y := 2000; y < 2003; y++ {
		for _, r := range []string{"north", "south", "west"} {
			for m := 1; m <= 12; m++ {
				mv := float64(y-2000)*12 + float64(m) + float64(len(r))
				if err := pdr.Put([]model.Value{model.Per(model.NewMonthly(y, time.Month(m))), model.Str(r)}, mv); err != nil {
					t.Fatal(err)
				}
			}
			for q := 1; q <= 4; q++ {
				if err := rate.Put([]model.Value{model.Per(model.NewQuarterly(y, q)), model.Str(r)}, float64(q)+float64(len(r))/10); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return pdr, rate
}

func loadedDB(t *testing.T, mode ExecMode, cubes ...*model.Cube) *DB {
	t.Helper()
	db := NewDB()
	db.SetExecMode(mode)
	for _, c := range cubes {
		if err := db.LoadCube(c); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func isColumnar(t *testing.T, db *DB, name string) bool {
	t.Helper()
	tab, ok := db.lookup(name)
	if !ok {
		t.Fatalf("no table %s", name)
	}
	return tab.columnar
}

// TestLoadCubeBuildsRowsOnDemand: the vectorized path scans, joins and
// extracts a cube-loaded table without ever building its rows, and
// DB.Table hands them out complete and in cube order.
func TestLoadCubeBuildsRowsOnDemand(t *testing.T) {
	pdr, rate := parityCubes(t)
	db := loadedDB(t, ExecVector, pdr, rate)
	mustQuery(t, db, `SELECT p.r AS r, sum(p.v * t.x) AS s FROM PDR p, RATE t WHERE quarter(p.d) = t.q AND p.r = t.r GROUP BY p.r`)
	back, err := db.ExtractCube(pdr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(pdr, 0) {
		t.Error("ExtractCube of a cube-loaded table lost data")
	}
	if !isColumnar(t, db, "pdr") || !isColumnar(t, db, "rate") {
		t.Error("the vectorized path built rows for a cube-loaded table")
	}

	tab, _ := db.Table("PDR")
	want := pdr.Tuples()
	if len(tab.Rows) != len(want) {
		t.Fatalf("DB.Table(PDR).Rows has %d rows, cube has %d tuples", len(tab.Rows), len(want))
	}
	for i, tu := range want {
		m, _ := tab.Rows[i][2].AsNumber()
		if !tab.Rows[i][0].Equal(tu.Dims[0]) || !tab.Rows[i][1].Equal(tu.Dims[1]) || m != tu.Measure {
			t.Fatalf("row %d = %v, want %v -> %v", i, tab.Rows[i], tu.Dims, tu.Measure)
		}
	}
}

// TestExecutorParityOnLoadedCubes runs the parity suite with both base
// tables bulk-loaded: the legacy executor reads their rows, the
// vectorized one their columns.
func TestExecutorParityOnLoadedCubes(t *testing.T) {
	pdr, rate := parityCubes(t)
	const view = `CREATE VIEW PQ AS SELECT quarter(d) AS q, r, avg(v) AS a FROM PDR GROUP BY quarter(d), r`
	legacy := loadedDB(t, ExecLegacy, pdr, rate)
	vector := loadedDB(t, ExecVector, pdr, rate)
	inserted := parityDB(t, ExecVector)
	mustExec(t, legacy, view)
	mustExec(t, vector, view)
	for _, q := range parityQueries {
		ls, vs, is := mustQuery(t, legacy, q).String(), mustQuery(t, vector, q).String(), mustQuery(t, inserted, q).String()
		if ls != vs || vs != is {
			t.Errorf("results differ on %q:\nlegacy:\n%s\nvector:\n%s\nvector over inserted rows:\n%s", q, ls, vs, is)
		}
	}
}

// TestMutateLoadedCube: INSERT … VALUES, DELETE and INSERT … SELECT into
// a cube-loaded table keep the loaded tuples, and ExtractCube sees the
// result.
func TestMutateLoadedCube(t *testing.T) {
	forBothExecs(t, func(t *testing.T, mode ExecMode) {
		pdr, _ := parityCubes(t)
		extra := model.NewCube(monthlyPDRSchema("EXTRA"))
		for m := 1; m <= 2; m++ {
			_ = extra.Put([]model.Value{model.Per(model.NewMonthly(2010, time.Month(m))), model.Str("east")}, float64(m))
		}
		db := loadedDB(t, mode, pdr, extra)
		mustExec(t, db, insertMonthly("PDR", 2005, 6, "north", 99))
		mustExec(t, db, `DELETE FROM PDR WHERE r = 'west'`)
		mustExec(t, db, `INSERT INTO PDR(d, r, v) SELECT d, r, v FROM EXTRA`)

		want := model.NewCube(pdr.Schema())
		for _, tu := range pdr.Tuples() {
			if r, _ := tu.Dims[1].AsString(); r != "west" {
				_ = want.Put(tu.Dims, tu.Measure)
			}
		}
		_ = want.Put([]model.Value{model.Per(model.NewMonthly(2005, time.June)), model.Str("north")}, 99)
		for _, tu := range extra.Tuples() {
			_ = want.Put(tu.Dims, tu.Measure)
		}
		got, err := db.ExtractCube(pdr.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if diff := want.Diff(got, 0, 5); len(diff) > 0 {
			t.Errorf("cube after INSERT/DELETE/INSERT SELECT: %v", diff)
		}
	})
}

// TestTabularFunctionOverLoadedCube: tabular functions read the rows of
// their argument tables, built-in and user-registered alike.
func TestTabularFunctionOverLoadedCube(t *testing.T) {
	forBothExecs(t, func(t *testing.T, mode ExecMode) {
		s := model.NewCube(model.NewSchema("S", []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
		for i := 0; i < 8; i++ {
			_ = s.Put([]model.Value{model.Per(model.NewAnnual(2000 + i))}, float64(i+1))
		}
		db := loadedDB(t, mode, s)
		seen := -1
		db.RegisterTabular("ROWCOUNT", func(args []*Table, _ []float64) (*Table, error) {
			seen = len(args[0].Rows)
			return args[0], nil
		})
		if res := mustQuery(t, db, "SELECT t, v FROM ROWCOUNT(S) ORDER BY t"); seen != 8 || len(res.Rows) != 8 {
			t.Errorf("user function saw %d rows and returned %d, want 8 and 8", seen, len(res.Rows))
		}
		if res := mustQuery(t, db, "SELECT t, v FROM STL_T(S) ORDER BY t"); len(res.Rows) != 8 {
			t.Errorf("STL_T over a cube-loaded table returned %d rows, want 8", len(res.Rows))
		}
		if res := mustQuery(t, db, "SELECT t, v FROM CUMSUM(S) ORDER BY t"); len(res.Rows) != 8 {
			t.Fatalf("CUMSUM returned %d rows", len(res.Rows))
		} else if f, _ := res.Rows[7][1].AsNumber(); f != 36 {
			t.Errorf("cumsum last = %v, want 36", f)
		}
	})
}

// TestSecondLoadAppends: loading into a table that already has content
// appends, whether that content is still columnar or already rows.
func TestSecondLoadAppends(t *testing.T) {
	forBothExecs(t, func(t *testing.T, mode ExecMode) {
		for _, rowsFirst := range []bool{false, true} {
			first := model.NewCube(monthlyPDRSchema("PDR"))
			second := model.NewCube(monthlyPDRSchema("PDR"))
			for m := 1; m <= 6; m++ {
				_ = first.Put([]model.Value{model.Per(model.NewMonthly(2000, time.Month(m))), model.Str("a")}, float64(m))
				_ = second.Put([]model.Value{model.Per(model.NewMonthly(2001, time.Month(m))), model.Str("a")}, float64(10*m))
			}
			db := loadedDB(t, mode, first)
			if rowsFirst {
				db.Table("PDR")
			}
			if err := db.LoadCube(second); err != nil {
				t.Fatal(err)
			}
			if res := mustQuery(t, db, "SELECT count(*) AS n, sum(v) AS s FROM PDR"); fmt.Sprint(res.Rows) != fmt.Sprint([][]model.Value{{model.Num(12), model.Num(231)}}) {
				t.Errorf("rowsFirst=%v: after two loads count, sum = %v", rowsFirst, res.Rows)
			}
			got, err := db.ExtractCube(first.Schema())
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != 12 {
				t.Errorf("rowsFirst=%v: extracted %d tuples, want 12", rowsFirst, got.Len())
			}
		}
	})
}

// pdrCube returns the GDP example's PDR(d: day, r: string) with n
// tuples over 20 regions.
func pdrCube(n int) *model.Cube {
	return workload.GDPSource(workload.GDPConfig{Days: n / 20, Regions: 20})["PDR"]
}

// TestLoadCubeAllocBudget: loading a stored cube (its order already
// cached, as for any version a run has scanned) into a fresh table
// allocates its three columns of 56-byte values and nothing per tuple
// besides, within 200 B/tuple.
func TestLoadCubeAllocBudget(t *testing.T) {
	const n = 50000
	c := pdrCube(n).Freeze()
	_ = c.Ordered(func(model.Tuple) error { return nil })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := NewDB().LoadCube(c); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 200 {
		t.Errorf("LoadCube allocates %.1f B/tuple, budget 200", per)
	}
}

func BenchmarkLoadCube(b *testing.B) {
	c := pdrCube(200000).Freeze()
	_ = c.Ordered(func(model.Tuple) error { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewDB().LoadCube(c); err != nil {
			b.Fatal(err)
		}
	}
}
