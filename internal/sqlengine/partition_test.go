package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"exlengine/internal/model"
	"exlengine/internal/obs"
)

// TestStringLiteralIsNotAColumn: exprString keys the aggregate pseudo-columns,
// and printed the literal 'a' as the column a — MAX('a') took MAX(a)'s column,
// whichever came first in the select list.
func TestStringLiteralIsNotAColumn(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		db := NewDB()
		mustExec(t, db, `CREATE TABLE T (k VARCHAR, i INTEGER, a DOUBLE)`)
		seed(t, db, "T", []any{"x", 1, 1}, []any{"x", 2, 2})
		for _, q := range []string{
			`SELECT k, MAX(a) AS m1, MAX('a') AS m2 FROM T GROUP BY k`,
			`SELECT k, MAX('a') AS m2, MAX(a) AS m1 FROM T GROUP BY k`,
		} {
			if _, err := query(context.Background(), db, q); err == nil || !strings.Contains(err.Error(), "aggregate max over non-numeric value a") {
				t.Errorf("%s: err = %v, want the aggregate over a string refused", q, err)
			}
		}
	})
	one := &callExpr{name: "f", args: []expr{&lit{v: model.Str("a, b")}}}
	two := &callExpr{name: "f", args: []expr{&lit{v: model.Str("a")}, &lit{v: model.Str("b")}}}
	if a, b := exprString(one), exprString(two); a == b || a != `f('a, b')` {
		t.Errorf("f('a, b') renders %s and f('a', 'b') renders %s", a, b)
	}
	if got := exprString(&binExpr{op: "=", l: &colRef{name: "s"}, r: &lit{v: model.Str("it's")}}); got != `(s = 'it''s')` {
		t.Errorf("a quote in a literal renders %s", got)
	}
}

// eventsCube is T(d: month, x: int) measure v: n tuples, x from -1 to 3.
func eventsCube(t testing.TB, n int) *model.Cube {
	t.Helper()
	c := model.NewCube(model.NewSchema("T", []model.Dim{{Name: "d", Type: model.TMonth}, {Name: "x", Type: model.TInt}}, "v"))
	for i := 0; i < n; i++ {
		dims := []model.Value{model.Per(model.NewMonthly(2000, time.January).Shift(int64(i / 5))), model.Int(int64(i%5 - 1))}
		if err := c.Put(dims, float64((i*7)%11)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	return c.Freeze()
}

// TestGroupBySources: which source of group ordinals a GROUP BY takes is read
// off the plan and the table, and changes no answer. Every statement runs over a
// version (a database of its own, the partition built in the fold) and over a
// revision on its key set (another database, the partition reused), and each
// answer is held to testdata/groupby.golden.
func TestGroupBySources(t *testing.T) {
	cases := []struct {
		name, query string
		partition   bool // the plan is eligible for the key set's partition
	}{
		{"the running example", `SELECT quarter(d) AS q, x, avg(v) AS a FROM T GROUP BY quarter(d), x`, true},
		// ln(1 - x) is NULL from x = 1 on; there d + ln(x) is a period shifted by
		// no integer, an error — but a row without a group is left out before the
		// aggregates see it. On the rows that stay, ln(x) is NULL, and not counted.
		{"a NULL key and an argument that fails beside it", `SELECT ln(1 - x) AS k, count(d + ln(x)) AS n, count(1) AS c FROM T GROUP BY ln(1 - x)`, true},
		{"order-sensitive folds", `SELECT x, median(v) AS m, stddev(v) AS s, prod(v) AS p FROM T GROUP BY x`, true},
		{"a constant beside the key", `SELECT year(d) AS y, x + 1 AS x1, sum(v * 2) - min(v) AS s FROM T GROUP BY year(d), x + 1`, true},
		{"an aggregate over no column", `SELECT month(d) AS m, count(1) AS n FROM T GROUP BY month(d)`, true},
		{"a filter on groups, through a view", `SELECT q, a FROM TQ WHERE ln(a - 5) IS NOT NULL`, true},
		{"a key that reads the measure", `SELECT v, count(1) AS n FROM T GROUP BY v`, false},
		{"a filter below", `SELECT x, sum(v) AS s FROM T WHERE ln(v - 3) IS NOT NULL GROUP BY x`, false},
		{"a join below", `SELECT a.x AS x, sum(a.v * b.v) AS s FROM T a, T b WHERE a.d = b.d + 1 AND a.x = b.x GROUP BY a.x`, false},
		{"no key", `SELECT count(1) AS n, sum(v) AS s FROM T`, false},
	}
	const view = `CREATE VIEW TQ AS SELECT quarter(d) AS q, max(v) AS a FROM T GROUP BY quarter(d)`
	golden := goldenAnswers(t, "groupby")
	for _, n := range []int{0, 7, 3000} {
		base := eventsCube(t, n)
		revision, err := base.Derive(base.Schema(), func(i int, tu model.Tuple) (float64, bool, error) { return tu.Measure * float64(i%3), true, nil })
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			for run, c := range []*model.Cube{base, revision} {
				db := loadedDB(t, c)
				mustExec(t, db, view)
				tracer, met := obs.NewTracer(), obs.NewRegistry()
				ctx := obs.ContextWithMetrics(obs.ContextWithTracer(context.Background(), tracer), met)
				got, err := query(ctx, db, tc.query)
				if err != nil {
					t.Fatalf("%d tuples, %s: %v", n, tc.name, err)
				}
				checkGolden(t, golden, fmt.Sprintf("%d %s: %s", n, []string{"version", "revision"}[run], tc.query), got)

				source := map[bool]string{true: "partition", false: "hash"}
				var plans, sources []string
				for _, root := range tracer.Roots() {
					for _, sp := range append(root.FindAll("sql.analyze"), root.FindAll("sql.exec")...) {
						if plan, ok := sp.Attr("plan"); ok {
							plans = append(plans, plan)
						}
						if groups, ok := sp.Attr("groups"); ok {
							sources = append(sources, groups)
						}
					}
				}
				if !strings.Contains(strings.Join(plans, ""), "groups="+source[tc.partition]) {
					t.Errorf("%s: the plan is not marked groups=%s:\n%s", tc.name, source[tc.partition], strings.Join(plans, ""))
				}
				if want := source[tc.partition && run == 1]; len(sources) != 1 || sources[0] != want {
					t.Errorf("%s, run %d: sql.exec says groups=%v, want %s", tc.name, run, sources, want)
				}
				built, reused := met.Counter(obs.MetricPartitionsBuilt).Value(), met.Counter(obs.MetricPartitionsReused).Value()
				if want := tc.partition && run == 0; built != b2i(want) || reused != b2i(tc.partition && !want) {
					t.Errorf("%s, run %d: %d partitions built and %d reused", tc.name, run, built, reused)
				}
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestPartitionFollowsPositions: the signature is written over the positions of
// the table's dimensions, so a version under another schema, on the same key
// set, groups by what another table's statement left there.
func TestPartitionFollowsPositions(t *testing.T) {
	base := eventsCube(t, 500)
	renamed, err := base.Derive(
		model.NewSchema("U", []model.Dim{{Name: "m", Type: model.TMonth}, {Name: "k", Type: model.TInt}}, "w"),
		func(_ int, tu model.Tuple) (float64, bool, error) { return -tu.Measure, true, nil })
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, loadedDB(t, base), `SELECT x, sum(v) AS s FROM T GROUP BY x`)
	met := obs.NewRegistry()
	q := `SELECT k, sum(w) AS s, count(1) AS n FROM U alias GROUP BY alias.k`
	got, err := query(obs.ContextWithMetrics(context.Background(), met), loadedDB(t, renamed), q)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenAnswers(t, "groupby"), "500 renamed: "+q, got)
	if met.Counter(obs.MetricPartitionsReused).Value() != 1 {
		t.Error("U's statement did not find the partition T's left on the key set")
	}
}

// benchPQR is the SQL target's work per run of the GDP program: a fresh
// database, the version loaded, the PQR statement.
func benchPQR(b *testing.B, versions func(i int) *model.Cube) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadAndGroup(b, versions(i))
	}
}

// BenchmarkGroupByRevisions: PQR over ten versions of the 200k-tuple PDR on
// one key set, a database each — all but the first find the key set grouped.
func BenchmarkGroupByRevisions(b *testing.B) {
	versions := []*model.Cube{pdrCube(200000).Freeze()}
	for len(versions) < 10 {
		k := float64(len(versions))
		next, err := versions[0].Derive(versions[0].Schema(), func(_ int, tu model.Tuple) (float64, bool, error) { return tu.Measure + k, true, nil })
		if err != nil {
			b.Fatal(err)
		}
		versions = append(versions, next)
	}
	loadAndGroup(b, versions[0])
	benchPQR(b, func(i int) *model.Cube { return versions[i%len(versions)] })
}

// BenchmarkGroupByFreshKeySet: the same statement over a key set nobody has
// grouped, every iteration: the fold that also records the partition. (Making
// the key set — the version with one tuple more — is outside the timer.)
func BenchmarkGroupByFreshKeySet(b *testing.B) {
	base := pdrCube(200000).Freeze()
	one := []model.Tuple{{Dims: []model.Value{model.Per(model.NewDaily(1999, time.December, 31)), model.Str("R00")}, Measure: 1}}
	benchPQR(b, func(int) *model.Cube {
		b.StopTimer()
		defer b.StartTimer()
		fresh, err := base.Apply(one, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		return fresh
	})
}
