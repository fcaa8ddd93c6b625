package sqlengine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"exlengine/internal/model"
)

// parityDB builds a small panel-and-rates fixture exercising joins,
// period arithmetic, grouping and views: parityCubes at 108 tuples, put in
// as tables' rows.
func parityDB(t *testing.T) *DB {
	t.Helper()
	pdr, rate, reg := parityCubes(t, 108)
	db := insertedDB(t, pdr, rate, reg)
	mustExec(t, db, parityView)
	return db
}

const parityView = `CREATE VIEW PQ AS SELECT quarter(d) AS q, r, avg(v) AS a FROM PDR GROUP BY quarter(d), r`

// insertedDB holds each cube as a table of rows: its tuples, in cube order,
// appended to Table.Rows.
func insertedDB(t *testing.T, cubes ...*model.Cube) *DB {
	t.Helper()
	db := NewDB()
	for _, c := range cubes {
		if err := db.CreateTableFor(c.Schema()); err != nil {
			t.Fatal(err)
		}
		tab, _ := db.Table(c.Schema().Name)
		for _, tu := range c.Tuples() {
			tab.Rows = append(tab.Rows, append(slices.Clone(tu.Dims), model.Num(tu.Measure)))
		}
	}
	return db
}

// parityQueries is the fixed suite: partial filters, hash joins with both
// sides streamed including a self-join, cross joins, grouping with and
// without aggregates, bare projections and a view. Each answer (schema, rows,
// order) is held to testdata/parity.golden and testdata/loaded.golden.
var parityQueries = []string{
	`SELECT d, r, v FROM PDR`,
	`SELECT r, v FROM PDR WHERE ln(v - 20) IS NOT NULL`,
	`SELECT d, v * 2 AS w FROM PDR WHERE r = 'north'`,
	`SELECT quarter(d) AS q, sum(v) AS s FROM PDR GROUP BY quarter(d)`,
	`SELECT r, count(1) AS n, avg(v) AS a FROM PDR GROUP BY r`,
	`SELECT p.r AS r, p.v AS v, t.x AS x FROM PDR p, RATE t WHERE quarter(p.d) = t.q AND p.r = t.r`,
	`SELECT p.r AS r, sum(p.v * t.x) AS s FROM PDR p, RATE t WHERE quarter(p.d) = t.q AND p.r = t.r GROUP BY p.r`,
	`SELECT a.q AS q, a.a AS cur, b.a AS prev FROM PQ a, PQ b WHERE a.r = b.r AND a.q = b.q - 1`,
	`SELECT r FROM PDR GROUP BY r`,
	`SELECT quarter(d) AS q FROM PDR GROUP BY quarter(d)`,
	`SELECT q, a FROM PQ WHERE a IS NOT NULL`,
	`SELECT year(d) AS y, min(v) AS lo, max(v) AS hi FROM PDR GROUP BY year(d)`,
	`SELECT t.r AS r, count(p.v) AS n FROM RATE t, PDR p WHERE t.r = p.r AND t.q = quarter(p.d) GROUP BY t.r`,
	`SELECT count(1) AS n FROM PDR WHERE ln(0 - v) IS NOT NULL`,
	`SELECT v, d FROM PDR`,
	`SELECT a.d AS d, a.r AS r, a.v AS cur, b.v AS prev FROM PDR a, PDR b WHERE a.r = b.r AND a.d = b.d + 1`,
	`SELECT p.d AS d, p.r AS r, g.w * p.v AS wv, g.g AS g FROM PDR p, REG g`,
	`SELECT g.g AS g, count(1) AS n, sum(p.v) AS s FROM REG g, PDR p WHERE ln(p.v - 5) IS NOT NULL GROUP BY g.g`,
}

// goldenAnswers reads testdata/<name>.golden: answers of this engine that
// a second, tuple-at-a-time executor gave to the byte as well, when the
// engine still had one. Each answer follows a line "-- <key>" and is the
// result's Table.String, or "sha256:<hex>" of it where answers are large.
func goldenAnswers(t *testing.T, name string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	// Every answer ends in a newline, which the separator before the next
	// key takes.
	sections := strings.Split("\n"+string(raw), "\n-- ")[1:]
	out := make(map[string]string, len(sections))
	for i, sec := range sections {
		key, answer, _ := strings.Cut(sec, "\n")
		if i < len(sections)-1 {
			answer += "\n"
		}
		if _, dup := out[key]; dup {
			t.Fatalf("%s.golden answers %q twice", name, key)
		}
		out[key] = answer
	}
	return out
}

// checkGolden holds a result to its golden answer.
func checkGolden(t *testing.T, golden map[string]string, key string, got *Table) {
	t.Helper()
	want, ok := golden[key]
	text := got.String()
	switch {
	case !ok:
		t.Errorf("no golden answer for %q", key)
	case strings.HasPrefix(want, "sha256:"):
		if digest := fmt.Sprintf("sha256:%x\n", sha256.Sum256([]byte(text))); digest != want {
			t.Errorf("%s: the answer of %d rows has %s, the golden one %s", key, len(got.Rows), digest, want)
		}
	case text != want:
		t.Errorf("%s:\n%s\nthe golden answer is\n%s", key, text, want)
	}
}

// TestExecutorParity runs the suite over the 108-tuple fixture put in as
// rows and holds every answer to testdata/parity.golden. With
// full-row deterministic ordering, any difference is a semantics bug, not an
// ordering artifact.
func TestExecutorParity(t *testing.T) {
	db := parityDB(t)
	golden := goldenAnswers(t, "parity")
	for _, q := range parityQueries {
		checkGolden(t, golden, q, mustQuery(t, db, q))
	}
}

// TestOrderByNullsLast pins the single NULL placement rule of the sort by
// all columns every SELECT ends in: NULLS LAST, ties broken by the next
// column, so the order is independent of input row order.
func TestOrderByNullsLast(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		mk := func(reverse bool) *DB {
			db := NewDB()
			rows := [][]model.Value{
				{model.Num(2), model.Str("a")},
				{{}, model.Str("d")},
				{model.Num(1), model.Str("c")},
				{{}, model.Str("b")},
			}
			if reverse {
				for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
					rows[i], rows[j] = rows[j], rows[i]
				}
			}
			db.tables["n"] = &Table{
				Name: "n",
				Cols: []Column{
					{Name: "v", Type: ColType{Kind: KDouble}},
					{Name: "k", Type: ColType{Kind: KVarchar}},
				},
				Rows: rows,
			}
			return db
		}

		q := `SELECT k FROM n`
		a := mustQuery(t, mk(false), q)
		b := mustQuery(t, mk(true), q)
		if a.String() != b.String() {
			t.Fatalf("order depends on input row order:\n%s\nvs\n%s", a.String(), b.String())
		}

		// Direct check of the sort: NULLs land last, and the two NULL rows
		// tie-break on the next column (b before d).
		tbl := mk(false).tables["n"]
		sortRows(tbl.Rows)
		if !tbl.Rows[0][0].IsValid() || !tbl.Rows[1][0].IsValid() {
			t.Fatalf("NULL sorted before values: %v", tbl.Rows)
		}
		if tbl.Rows[2][0].IsValid() || tbl.Rows[3][0].IsValid() {
			t.Fatalf("values sorted after NULLs: %v", tbl.Rows)
		}
		if k2, _ := tbl.Rows[2][1].AsString(); k2 != "b" {
			t.Fatalf("NULL-row tie-break: got %v, want b before d", tbl.Rows[2][1])
		}
	})
}

// TestViewDiamondEvaluatesOnce is the regression test for exponential
// view re-evaluation: with a diamond-shaped view graph (TOP references
// MID1 and MID2, both referencing BASE), BASE used to be evaluated once
// per reference — 2^depth times in a deep diamond. The per-statement
// resolver memo must evaluate each view exactly once per statement.
func TestViewDiamondEvaluatesOnce(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		db := NewDB()
		calls := 0
		db.RegisterTabular("probe", func(args []*Table, params []float64) (*Table, error) {
			calls++
			return &Table{
				Name: "probe",
				Cols: []Column{{Name: "v", Type: ColType{Kind: KDouble}}},
				Rows: [][]model.Value{{model.Num(1)}, {model.Num(2)}},
			}, nil
		})
		mustExec(t, db, `
CREATE TABLE SEED (v DOUBLE);
CREATE VIEW BASE AS SELECT v FROM PROBE(SEED);
CREATE VIEW MID1 AS SELECT v * 2 AS v FROM BASE;
CREATE VIEW MID2 AS SELECT v * 3 AS v FROM BASE;
CREATE VIEW TOP AS SELECT a.v AS x, b.v AS y FROM MID1 a, MID2 b WHERE a.v = a.v`)

		res := mustQuery(t, db, `SELECT x, y FROM TOP`)
		if len(res.Rows) != 4 {
			t.Fatalf("TOP rows = %d, want 4", len(res.Rows))
		}
		if calls != 1 {
			t.Fatalf("BASE evaluated %d times in one statement, want 1 (memoized)", calls)
		}

		// A second statement re-evaluates (views see fresh data).
		mustQuery(t, db, `SELECT x FROM TOP`)
		if calls != 2 {
			t.Fatalf("BASE evaluated %d times across two statements, want 2", calls)
		}
	})
}

// TestAnalyzerPlanShape pins what the analyzer rules actually do to a
// representative join-aggregate query: filters pushed below the join,
// the smaller (filtered) side chosen as hash-join build input, scans
// pruned to live columns.
func TestAnalyzerPlanShape(t *testing.T) {
	db := parityDB(t)
	s, err := parseQuery(`SELECT p.r AS r, sum(p.v * t.x) AS s FROM PDR p, RATE t WHERE quarter(p.d) = t.q AND p.r = t.r AND ln(t.x - 1) IS NOT NULL GROUP BY p.r`)
	if err != nil {
		t.Fatal(err)
	}
	r := db.newResolver(context.Background())
	p, err := db.prepareSelect(s, r)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.analyze(context.Background(), buildPlan(s, p), p.sc)
	if err != nil {
		t.Fatal(err)
	}
	rendered := renderPlan(plan)
	if strings.Contains(rendered, "multijoin") {
		t.Fatalf("multi-join survived analysis:\n%s", rendered)
	}
	if !strings.Contains(rendered, "hashjoin") {
		t.Fatalf("no hash join in plan:\n%s", rendered)
	}
	if !strings.Contains(rendered, "filter((ln((t.x - 1)) is not null))") {
		t.Fatalf("single-table filter not pushed down:\n%s", rendered)
	}
	// PDR has columns d, r, v — all referenced; RATE has q, r, x — all
	// referenced too. Re-check pruning with a narrow query instead.
	s, _ = parseQuery(`SELECT r FROM PDR`)
	p, err = db.prepareSelect(s, db.newResolver(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	plan, err = db.analyze(context.Background(), buildPlan(s, p), p.sc)
	if err != nil {
		t.Fatal(err)
	}
	var scan *scanNode
	var find func(n planNode)
	find = func(n planNode) {
		if sn, ok := n.(*scanNode); ok {
			scan = sn
		}
		for _, c := range planChildren(n) {
			find(c)
		}
	}
	find(plan)
	if scan == nil {
		t.Fatal("no scan in plan")
	}
	if len(scan.proj) != 1 {
		t.Fatalf("scan not pruned to 1 column: proj=%v\n%s", scan.proj, renderPlan(plan))
	}
}
