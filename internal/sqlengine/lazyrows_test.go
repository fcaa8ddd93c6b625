package sqlengine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/workload"
)

// A table holds one cube version, and a loaded one is the stored version
// itself. These tests drive the executor over such tables, and what loading
// and inserting do to them.

func monthlyPDRSchema(name string) model.Schema {
	return model.NewSchema(name, []model.Dim{
		{Name: "d", Type: model.TMonth}, {Name: "r", Type: model.TString}}, "v")
}

// parityCubes is the parity fixture at n PDR tuples: a monthly panel over
// three regions from 2000-01 on, a quarterly RATE over the quarters the
// panel reaches, and a two-row REG with no dimension in common with either,
// for cross joins.
func parityCubes(t *testing.T, n int) (pdr, rate, reg *model.Cube) {
	t.Helper()
	regions := []string{"north", "south", "west"}
	pdr = model.NewCube(monthlyPDRSchema("PDR"))
	rate = model.NewCube(model.NewSchema("RATE", []model.Dim{
		{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "x"))
	reg = model.NewCube(model.NewSchema("REG", []model.Dim{{Name: "g", Type: model.TString}}, "w"))
	put := func(c *model.Cube, m float64, dims ...model.Value) {
		if err := c.Put(dims, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		month, r := i/len(regions), regions[i%len(regions)]
		put(pdr, float64(month+1+len(r)), model.Per(model.NewMonthly(2000, time.January).Shift(int64(month))), model.Str(r))
	}
	for q := 0; q < (n+8)/9; q++ { // nine tuples to a quarter
		for _, r := range regions {
			put(rate, float64(q%4+1)+float64(len(r))/10, model.Per(model.NewQuarterly(2000, 1).Shift(int64(q))), model.Str(r))
		}
	}
	put(reg, 0.5, model.Str("inner"))
	put(reg, 2, model.Str("outer"))
	return pdr, rate, reg
}

func loadedDB(t *testing.T, cubes ...*model.Cube) *DB {
	t.Helper()
	db := NewDB()
	for _, c := range cubes {
		if err := db.LoadCube(c); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestExecutorParityOnLoadedCubes runs the parity suite over loaded tables:
// the executor streams the stored versions through a scratch batch it
// refills, so a consumer that kept a batch across next() would show here — at
// sizes of no chunk, whole chunks, and whole chunks and a part. Each answer is
// held to testdata/loaded.golden.
//
// The suite runs three times, each on a database of its own: over a version
// nobody has grouped, whose key set's partitions the GROUP BYs build inside
// their folds; over the same version again, where they take every row's group
// from the key set and must answer to the byte what they answered before; and
// over a revision on that key set, which builds nothing either. Then a
// statement from a loaded table, and one through the view over it, each fill a
// table of their own, which holds what the statement's SELECT answers.
func TestExecutorParityOnLoadedCubes(t *testing.T) {
	golden := goldenAnswers(t, "loaded")
	for _, n := range []int{0, 108, 1024, 2048, 2500} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			pdr, rate, reg := parityCubes(t, n)
			pdr.Freeze()
			var restated []model.Tuple
			for i, tu := range pdr.Tuples() {
				if i%5 == 2 {
					restated = append(restated, model.Tuple{Dims: tu.Dims, Measure: 3*tu.Measure + 0.25})
				}
			}
			revision, err := pdr.Apply(nil, restated, nil)
			if err != nil {
				t.Fatal(err)
			}
			for run, pdr := range []*model.Cube{pdr, pdr, revision} {
				version := map[bool]string{false: "version", true: "revision"}[run == 2]
				db := loadedDB(t, pdr, rate, reg)
				mustExec(t, db, parityView)
				met := obs.NewRegistry()
				ctx := obs.ContextWithMetrics(context.Background(), met)
				for _, q := range parityQueries {
					got, err := query(ctx, db, q)
					if err != nil {
						t.Fatalf("%q: %v", q, err)
					}
					checkGolden(t, golden, fmt.Sprintf("%d %s: %s", n, version, q), got)
				}
				built, reused := met.Counter(obs.MetricPartitionsBuilt).Value(), met.Counter(obs.MetricPartitionsReused).Value()
				// PDR is grouped four ways — by quarter, by region, by both (the
				// view, in two of the statements), by year — as many as a key set
				// holds; seven statements group it, three of them a way another
				// grouped it before.
				if want := int64(min(run, 1)); built != 4*(1-want) || reused != 3+4*want {
					t.Errorf("run %d built %d partitions and reused %d, want %d and %d", run, built, reused, 4*(1-want), 3+4*want)
				}
				mustExec(t, db, `CREATE TABLE NEXT (d MONTH, r VARCHAR, v DOUBLE);
INSERT INTO NEXT(d, r, v) SELECT d + 1200 AS d, r, v * 2 AS v FROM PDR;
CREATE TABLE RATE2 (q QUARTER, r VARCHAR, x DOUBLE);
INSERT INTO RATE2(q, r, x) SELECT q + 400 AS q, r, a AS x FROM PQ`)
				for table, q := range map[string]string{
					`SELECT d, r, v FROM NEXT`:  `SELECT d + 1200 AS d, r, v * 2 AS v FROM PDR`,
					`SELECT q, r, x FROM RATE2`: `SELECT q + 400 AS q, r, a AS x FROM PQ`,
				} {
					if got, want := mustQuery(t, db, table).String(), mustQuery(t, db, q).String(); got != want {
						t.Errorf("run %d: %q answers\n%s\nafter the INSERT of %q, which answers\n%s", run, table, got, q, want)
					}
				}
			}
		})
	}
}

// TestMutateLoadedCube: a loaded table holds the version it was loaded with.
// An INSERT into it is refused and changes nothing; what the statement would
// add goes into a table of its own.
func TestMutateLoadedCube(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		pdr, _, _ := parityCubes(t, 108)
		extra := model.NewCube(monthlyPDRSchema("EXTRA"))
		for m := 1; m <= 2; m++ {
			_ = extra.Put([]model.Value{model.Per(model.NewMonthly(2010, time.Month(m))), model.Str("east")}, float64(m))
		}
		db := loadedDB(t, pdr, extra)
		if err := db.Exec(`INSERT INTO PDR(d, r, v) SELECT d, r, v FROM EXTRA`); err == nil || !strings.Contains(err.Error(), "already holds a version") {
			t.Errorf("INSERT into a loaded table: err = %v, want a table that already holds a version", err)
		}
		got, err := db.ExtractCube(pdr.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if diff := pdr.Diff(got, 0, 5); len(diff) > 0 || !got.SharesKeySet(pdr) {
			t.Errorf("PDR after the refused INSERT: %v, on the loaded key set: %v", diff, got.SharesKeySet(pdr))
		}
		mustExec(t, db, `CREATE TABLE MORE (d MONTH, r VARCHAR, v DOUBLE); INSERT INTO MORE(d, r, v) SELECT d, r, v FROM EXTRA`)
		more, err := db.ExtractCube(monthlyPDRSchema("MORE"))
		if err != nil {
			t.Fatal(err)
		}
		if !more.Equal(extra, 0) {
			t.Errorf("MORE = %v, want EXTRA's tuples %v", more.Tuples(), extra.Tuples())
		}
	})
}

// TestTabularFunctionOverLoadedCube: a tabular function is a black box of ops
// over its argument's version, and its result stands on that version's key
// set.
func TestTabularFunctionOverLoadedCube(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		s := model.NewCube(model.NewSchema("S", []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
		for i := 0; i < 8; i++ {
			_ = s.Put([]model.Value{model.Per(model.NewAnnual(2000 + i))}, float64(i+1))
		}
		db := loadedDB(t, s)
		if res := mustQuery(t, db, "SELECT t, v FROM STL_T(S)"); len(res.Rows) != 8 {
			t.Errorf("STL_T over a loaded table returned %d rows, want 8", len(res.Rows))
		}
		if res := mustQuery(t, db, "SELECT t, v FROM CUMSUM(S)"); len(res.Rows) != 8 {
			t.Fatalf("CUMSUM returned %d rows", len(res.Rows))
		} else if f, _ := res.Rows[7][1].AsNumber(); f != 36 {
			t.Errorf("cumsum last = %v, want 36", f)
		}
		if err := db.Exec("CREATE TABLE C (t YEAR, v DOUBLE); INSERT INTO C(t, v) SELECT t, v FROM NOSUCH(S)"); err == nil || !strings.Contains(err.Error(), "unknown tabular function nosuch") {
			t.Errorf("a tabular function that is no black box: err = %v", err)
		}
	})
}

// TestSecondLoadRefused: a table takes one version. Loading a cube into a
// table that already holds tuples is refused, and the table keeps the first.
func TestSecondLoadRefused(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		first := model.NewCube(monthlyPDRSchema("PDR"))
		second := model.NewCube(monthlyPDRSchema("PDR"))
		for m := 1; m <= 6; m++ {
			_ = first.Put([]model.Value{model.Per(model.NewMonthly(2000, time.Month(m))), model.Str("a")}, float64(m))
			_ = second.Put([]model.Value{model.Per(model.NewMonthly(2001, time.Month(m))), model.Str("a")}, float64(10*m))
		}
		db := loadedDB(t, first)
		if err := db.LoadCube(second); err == nil || !strings.Contains(err.Error(), "already holds a version") {
			t.Errorf("second load: err = %v, want a table that already holds a version", err)
		}
		if res := mustQuery(t, db, "SELECT count(1) AS n, sum(v) AS s FROM PDR"); fmt.Sprint(res.Rows) != fmt.Sprint([][]model.Value{{model.Num(6), model.Num(21)}}) {
			t.Errorf("after the refused load count, sum = %v, want 6, 21", res.Rows)
		}
	})
}

// TestLoadCubeRejectsOtherWidth: a table's columns are its cube's dimensions
// and then its measure, so a table whose columns are not the cube's cannot
// take the cube.
func TestLoadCubeRejectsOtherWidth(t *testing.T) {
	pdr, _, _ := parityCubes(t, 9)
	for _, ddl := range []string{`CREATE TABLE PDR (d MONTH, v DOUBLE)`, `CREATE TABLE PDR (d MONTH, r VARCHAR, s VARCHAR, v DOUBLE)`} {
		db := NewDB()
		mustExec(t, db, ddl)
		if err := db.LoadCube(pdr); err == nil || !strings.Contains(err.Error(), "columns") {
			t.Errorf("LoadCube of a 3-column cube after %q: err = %v, want a column-count error", ddl, err)
		}
		if res := mustQuery(t, db, `SELECT count(1) AS n FROM PDR`); fmt.Sprint(res.Rows) != fmt.Sprint([][]model.Value{{model.Num(0)}}) {
			t.Errorf("after the rejected load %q holds %v rows, want 0", ddl, res.Rows)
		}
	}
}

// TestLoadedTableIsASnapshot: a table loaded from a cube that is then
// mutated — it was not frozen — goes on showing what was loaded, to the
// scan and to ExtractCube.
func TestLoadedTableIsASnapshot(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		pdr, _, _ := parityCubes(t, 2500)
		want := pdr.Clone()
		db := loadedDB(t, pdr)
		first := pdr.Tuples()[0]
		pdr.Delete(first.Dims)
		if err := pdr.Replace(pdr.Tuples()[0].Dims, -1); err != nil {
			t.Fatal(err)
		}
		if err := pdr.Put([]model.Value{model.Per(model.NewMonthly(1990, time.May)), model.Str("east")}, 7); err != nil {
			t.Fatal(err)
		}
		sum, lo := 0.0, math.Inf(1)
		for _, tu := range want.Tuples() {
			sum, lo = sum+tu.Measure, min(lo, tu.Measure)
		}
		res := mustQuery(t, db, `SELECT count(1) AS n, sum(v) AS s, min(v) AS lo FROM PDR`)
		if fmt.Sprint(res.Rows) != fmt.Sprint([][]model.Value{{model.Num(2500), model.Num(sum), model.Num(lo)}}) {
			t.Errorf("count, sum, min after mutating the loaded cube = %v, want 2500, %v, %v", res.Rows, sum, lo)
		}
		got, err := db.ExtractCube(want.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if diff := want.Diff(got, 0, 5); len(diff) > 0 {
			t.Errorf("table after mutating the loaded cube: %v", diff)
		}
	})
}

// TestSharedVersionScannedConcurrently: goroutines, each with a DB of its
// own, load the same stored version and scan it at once, and INSERT the
// statement's result as the revision of one shared predecessor, on whose key
// set it lands. Every scan reads the version's own columns and writes only its
// own scratch, and every builder only its own measure column; the race
// detector checks that.
func TestSharedVersionScannedConcurrently(t *testing.T) {
	pdr, _, _ := parityCubes(t, 2500)
	pdr.Freeze()
	const q = `SELECT quarter(d) AS q, r, avg(v) AS a FROM PDR WHERE ln(v - 10) IS NOT NULL GROUP BY quarter(d), r`
	const insert = `CREATE TABLE PQ (q QUARTER, r VARCHAR, a DOUBLE); INSERT INTO PQ(q, r, a) ` + q
	want := mustQuery(t, loadedDB(t, pdr), q).String()
	pqSchema := model.NewSchema("PQ", []model.Dim{{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "a")
	first := loadedDB(t, pdr)
	mustExec(t, first, insert)
	prev, err := first.ExtractCube(pqSchema)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			db := NewDB()
			if err := db.LoadCube(pdr); err != nil {
				t.Error(err)
				return
			}
			db.Follow(map[string]*model.Cube{"PQ": prev})
			res, err := query(context.Background(), db, q)
			if err != nil {
				t.Error(err)
			} else if got := res.String(); got != want {
				t.Errorf("goroutine %d read\n%s\nwant\n%s", g, got, want)
			}
			if err := db.Exec(insert); err != nil {
				t.Error(err)
				return
			}
			if pq, err := db.ExtractCube(pqSchema); err != nil {
				t.Error(err)
			} else if !pq.SharesKeySet(prev) || !pq.Equal(prev, 0) {
				t.Errorf("goroutine %d built PQ on its predecessor's key set: %v, equal to it: %v", g, pq.SharesKeySet(prev), pq.Equal(prev, 0))
			}
		}(g)
	}
	wg.Wait()
}

// pdrCube returns the GDP example's PDR(d: day, r: string) with n
// tuples over 20 regions.
func pdrCube(n int) *model.Cube {
	return workload.GDPSource(workload.GDPConfig{Days: n / 20, Regions: 20})["PDR"]
}

// pqrScript is what sqlgen emits for PQR := avg(PDR, group by quarter(d) as
// q, r), the GDP program's statement over its one large cube.
const pqrScript = `
CREATE TABLE PQR (q QUARTER, r VARCHAR, p DOUBLE);
INSERT INTO PQR(q, r, p)
SELECT QUARTER(C1.d) AS q, C1.r AS r, AVG(C1.p) AS p
FROM PDR C1
GROUP BY QUARTER(C1.d), C1.r`

// loadAndGroup is the SQL target's work on a stored version: load it into a
// fresh database and run the PQR statement over it.
func loadAndGroup(tb testing.TB, c *model.Cube) {
	tb.Helper()
	db := NewDB()
	if err := db.LoadCube(c); err != nil {
		tb.Fatal(err)
	}
	if err := db.Exec(pqrScript); err != nil {
		tb.Fatal(err)
	}
}

// TestLoadCubeAllocBudget: loading a stored version (its order already
// cached, as for any version a run has scanned) and grouping it allocates
// the scan's one scratch batch, the groups and the result — nothing per
// scanned tuple, where a copy of the table into columns of values cost
// 3 × 56 B of them. Within 24 B/tuple, the groups' share at this size.
func TestLoadCubeAllocBudget(t *testing.T) {
	const n = 50000
	c := pdrCube(n).Freeze()
	_ = c.Ordered(func(model.Tuple) error { return nil })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loadAndGroup(t, c)
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 24 {
		t.Errorf("load + PQR allocate %.1f B per scanned tuple, budget 24", per)
	}
}

// TestPartitionHitAllocsPerGroup: over a key set that holds the partition, the
// PQR statement folds the version's measure column where it lies, and what it
// allocates grows with the groups, not the rows: no more per input row at 200k
// rows than at 50k, where fixed costs weigh four times as much.
func TestPartitionHitAllocsPerGroup(t *testing.T) {
	perRow := func(n int) float64 {
		c := pdrCube(n).Freeze()
		loadAndGroup(t, c) // the key set now holds the partition
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loadAndGroup(t, c)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	if small, large := perRow(50000), perRow(200000); large > small {
		t.Errorf("PQR over a grouped key set allocates %.2f B per row at 200k rows and %.2f at 50k", large, small)
	}
}

// TestScalarCallAllocsIndependentOfRows: a numeric scalar call keeps its
// argument buffer on the compiled call, so what a statement allocates does
// not grow with the rows it scans.
func TestScalarCallAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		pdr, _, _ := parityCubes(t, n)
		db := loadedDB(t, pdr)
		return testing.AllocsPerRun(5, func() {
			mustQuery(t, db, `SELECT sum(ln(v)) AS s FROM PDR`)
		})
	}
	if small, large := allocs(2048), allocs(8192); large > small+8 {
		t.Errorf("SELECT sum(ln(v)) allocates %.0f times over 2048 rows and %.0f over 8192", small, large)
	}
}

// BenchmarkLoadAndGroupBy is one SQL fragment over the 200k-tuple PDR: the
// load, which is O(1), and the PQR statement, which holds the scan.
func BenchmarkLoadAndGroupBy(b *testing.B) {
	c := pdrCube(200000).Freeze()
	_ = c.Ordered(func(model.Tuple) error { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadAndGroup(b, c)
	}
}
