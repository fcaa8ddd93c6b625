package sqlengine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exlengine/internal/model"
	"exlengine/internal/obs"
)

// parityDB builds a small panel-and-rates fixture exercising joins,
// period arithmetic, grouping and views: parityCubes at 108 tuples, loaded.
func parityDB(t *testing.T) *DB {
	t.Helper()
	pdr, rate, reg := parityCubes(t, 108)
	db := loadedDB(t, pdr, rate, reg)
	mustExec(t, db, parityView)
	return db
}

const parityView = `CREATE VIEW PQ AS SELECT quarter(d) AS q, r, avg(v) AS a FROM PDR GROUP BY quarter(d), r`

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
// answer's String, or "sha256:<hex>" of it where answers are large.
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
func checkGolden(t *testing.T, golden map[string]string, key string, got *answer) {
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

// TestExecutorParity runs the suite over the 108-tuple fixture and holds
// every answer to testdata/parity.golden. With
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
		rows := [][]model.Value{
			{model.Num(2), model.Str("a")},
			{{}, model.Str("d")},
			{model.Num(1), model.Str("c")},
			{{}, model.Str("b")},
		}
		var sorted []string
		for _, reverse := range []bool{false, true} {
			b := &batch{Cols: make([]vec, 2)}
			for i := range rows {
				if reverse {
					i = len(rows) - 1 - i
				}
				b.AppendRow(rows[i])
			}
			var got []string
			for _, i := range sortedRows(b) {
				got = append(got, fmt.Sprint(b.Row(i, nil)))
			}
			sorted = append(sorted, strings.Join(got, " "))
		}
		// NULLs land last, and the two NULL rows tie-break on the next column
		// (b before d).
		want := fmt.Sprint([]model.Value{model.Num(1), model.Str("c")}) + " " + fmt.Sprint([]model.Value{model.Num(2), model.Str("a")}) +
			" " + fmt.Sprint([]model.Value{{}, model.Str("b")}) + " " + fmt.Sprint([]model.Value{{}, model.Str("d")})
		if sorted[0] != want || sorted[1] != want {
			t.Fatalf("sorted rows:\n%s\n%s\nwant\n%s", sorted[0], sorted[1], want)
		}
	})
}

// TestViewDiamondEvaluatesOnce is the regression test for exponential
// view re-evaluation: with a diamond-shaped view graph (TOP references
// MID1 and MID2, both referencing BASE), BASE used to be evaluated once
// per reference — 2^depth times in a deep diamond. The per-statement
// resolver memo must evaluate each view exactly once per statement: each
// evaluation of a SELECT is one sql.vec span.
func TestViewDiamondEvaluatesOnce(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		db := NewDB()
		mustExec(t, db, `
CREATE TABLE SEED (k INTEGER, v DOUBLE);
CREATE VIEW BASE AS SELECT k, v FROM SEED;
CREATE VIEW MID1 AS SELECT k, v * 2 AS v FROM BASE;
CREATE VIEW MID2 AS SELECT k, v * 3 AS v FROM BASE;
CREATE VIEW TOP AS SELECT a.k AS k, b.k AS j, a.v + b.v AS v FROM MID1 a, MID2 b`)
		seed(t, db, "SEED", []any{1, 1}, []any{2, 2})

		evaluations := func(q string) (*answer, int) {
			tracer := obs.NewTracer()
			res, err := query(obs.ContextWithTracer(context.Background(), tracer), db, q)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, root := range tracer.Roots() {
				n += len(root.FindAll("sql.vec"))
			}
			return res, n
		}
		res, n := evaluations(`SELECT k, j, v FROM TOP`)
		if len(res.Rows) != 4 {
			t.Fatalf("TOP rows = %d, want 4", len(res.Rows))
		}
		// The statement, TOP, MID1, MID2 and BASE once.
		if n != 5 {
			t.Fatalf("%d SELECTs evaluated in one statement, want 5 (BASE memoized)", n)
		}
		// A second statement evaluates them again (views see fresh data).
		if _, n := evaluations(`SELECT v FROM TOP`); n != 5 {
			t.Fatalf("%d SELECTs evaluated in the second statement, want 5", n)
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
