package sqlengine

import (
	"math"
	"strings"
	"testing"

	"exlengine/internal/model"
)

func mustExec(t *testing.T, db *DB, sql string) {
	t.Helper()
	if err := db.Exec(sql); err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
}

func mustQuery(t *testing.T, db *DB, sql string) *Table {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

func seedGDP(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE PQR (q QUARTER, r VARCHAR, p DOUBLE);
CREATE TABLE RGDPPC (q QUARTER, r VARCHAR, g DOUBLE);
INSERT INTO PQR(q, r, p) VALUES
  ('2001-Q1', 'north', 15), ('2001-Q2', 'north', 35),
  ('2001-Q1', 'south', 150), ('2001-Q2', 'south', 350);
INSERT INTO RGDPPC(q, r, g) VALUES
  ('2001-Q1', 'north', 2), ('2001-Q2', 'north', 4),
  ('2001-Q1', 'south', 3), ('2001-Q2', 'south', 5);
`)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := seedGDP(t)
	res := mustQuery(t, db, "SELECT q, r, p FROM PQR")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Cols[0].Type.Kind != KPeriod || res.Cols[1].Type.Kind != KVarchar || res.Cols[2].Type.Kind != KDouble {
		t.Errorf("column types = %v", res.Cols)
	}
	if res.Rows[0][0].String() != "2001-Q1" || res.Rows[0][1].String() != "north" {
		t.Errorf("first row = %v", res.Rows[0])
	}
}

// TestPaperJoinQuery runs the exact SQL shape the paper generates for tgd
// (2): a join on dimensions with a tuple-level measure combination.
func TestPaperJoinQuery(t *testing.T) {
	db := seedGDP(t)
	mustExec(t, db, "CREATE TABLE RGDP (q QUARTER, r VARCHAR, g DOUBLE)")
	mustExec(t, db, `
INSERT INTO RGDP(q, r, g)
SELECT C2.q AS q, C2.r AS r, C1.p * C2.g AS g
FROM PQR C1, RGDPPC C2
WHERE C1.q = C2.q AND C1.r = C2.r`)
	res := mustQuery(t, db, "SELECT g FROM RGDP WHERE q = '2001-Q1' AND r = 'north'")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if f, _ := res.Rows[0][0].AsNumber(); f != 30 {
		t.Errorf("RGDP = %v", f)
	}
}

// TestPaperShiftJoin runs the paper's PCHNG query: a self-join with period
// arithmetic in the join condition.
func TestPaperShiftJoin(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE GDPT (q QUARTER, g DOUBLE);
INSERT INTO GDPT(q, g) VALUES ('2001-Q1', 480), ('2001-Q2', 1890), ('2001-Q3', 2000);
CREATE TABLE PCHNG (q QUARTER, g DOUBLE);
INSERT INTO PCHNG(q, g)
SELECT C1.q AS q, (C1.g - C2.g) * 100 / C1.g AS g
FROM GDPT C1, GDPT C2
WHERE C2.q = C1.q - 1`)
	res := mustQuery(t, db, "SELECT q, g FROM PCHNG")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d: %s", len(res.Rows), res)
	}
	want := (1890.0 - 480.0) * 100 / 1890.0
	if f, _ := res.Rows[0][1].AsNumber(); math.Abs(f-want) > 1e-9 {
		t.Errorf("PCHNG(2001-Q2) = %v, want %v", f, want)
	}
}

func TestGroupByWithDimensionFunction(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE PDR (d DAY, r VARCHAR, p DOUBLE);
INSERT INTO PDR(d, r, p) VALUES
  ('2001-03-30', 'north', 10), ('2001-03-31', 'north', 20),
  ('2001-04-01', 'north', 30), ('2001-04-02', 'north', 40)`)
	res := mustQuery(t, db, `
SELECT QUARTER(d) AS q, r, AVG(p) AS p
FROM PDR
GROUP BY QUARTER(d), r`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].String() != "2001-Q1" {
		t.Errorf("q = %v", res.Rows[0][0])
	}
	if f, _ := res.Rows[0][2].AsNumber(); f != 15 {
		t.Errorf("avg Q1 = %v", f)
	}
	if f, _ := res.Rows[1][2].AsNumber(); f != 35 {
		t.Errorf("avg Q2 = %v", f)
	}
}

func TestAggregates(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE T (k VARCHAR, v DOUBLE);
INSERT INTO T(k, v) VALUES ('a', 4), ('a', 1), ('a', 3), ('a', 2), ('b', 10)`)
	res := mustQuery(t, db, `
SELECT k, SUM(v) s, AVG(v) a, MIN(v) mn, MAX(v) mx, COUNT(*) c, MEDIAN(v) md, STDDEV(v) sd
FROM T GROUP BY k`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	get := func(r, c int) float64 {
		f, _ := res.Rows[r][c].AsNumber()
		return f
	}
	if get(0, 1) != 10 || get(0, 2) != 2.5 || get(0, 3) != 1 || get(0, 4) != 4 || get(0, 5) != 4 || get(0, 6) != 2.5 {
		t.Errorf("aggregates row a = %v", res.Rows[0])
	}
	if math.Abs(get(0, 7)-math.Sqrt(1.25)) > 1e-9 {
		t.Errorf("stddev = %v", get(0, 7))
	}
	if get(1, 5) != 1 {
		t.Errorf("count b = %v", get(1, 5))
	}
}

func TestGlobalAggregateEmptyTable(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE)")
	res := mustQuery(t, db, "SELECT SUM(v) FROM T")
	if len(res.Rows) != 0 {
		t.Errorf("sum over empty table must give no rows (empty bag), got %d", len(res.Rows))
	}
}

func TestTabularFunctions(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE S (t YEAR, v DOUBLE);
INSERT INTO S(t, v) VALUES ('2000', 1), ('2001', 2), ('2002', 3), ('2003', 4)`)
	res := mustQuery(t, db, "SELECT t, v FROM CUMSUM(S)")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if f, _ := res.Rows[3][1].AsNumber(); f != 10 {
		t.Errorf("cumsum last = %v", f)
	}
	res = mustQuery(t, db, "SELECT t, v FROM MOVAVG(S, 2)")
	if f, _ := res.Rows[3][1].AsNumber(); f != 3.5 {
		t.Errorf("movavg last = %v", f)
	}
	res = mustQuery(t, db, "SELECT t, v FROM LINTREND(S)")
	if f, _ := res.Rows[0][1].AsNumber(); math.Abs(f-1) > 1e-9 {
		t.Errorf("lintrend first = %v", f)
	}
	// stl components reconstruct the series.
	tr := mustQuery(t, db, "SELECT t, v FROM STL_T(S)")
	se := mustQuery(t, db, "SELECT t, v FROM STL_S(S)")
	ir := mustQuery(t, db, "SELECT t, v FROM STL_I(S)")
	for i := 0; i < 4; i++ {
		a, _ := tr.Rows[i][1].AsNumber()
		b, _ := se.Rows[i][1].AsNumber()
		c, _ := ir.Rows[i][1].AsNumber()
		if math.Abs(a+b+c-float64(i+1)) > 1e-9 {
			t.Errorf("stl additivity at %d", i)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE T (k VARCHAR, v DOUBLE);
INSERT INTO T(k, v) VALUES ('a', 2), ('b', 0), ('c', -1)`)
	// 1/0 is NULL: its row disappears from the output.
	res := mustQuery(t, db, "SELECT k, 1 / v FROM T")
	if len(res.Rows) != 2 {
		t.Errorf("rows with defined 1/v = %d", len(res.Rows))
	}
	// LN of non-positive values is NULL too.
	res = mustQuery(t, db, "SELECT k, LN(v) FROM T")
	if len(res.Rows) != 1 {
		t.Errorf("rows with defined ln = %d", len(res.Rows))
	}
	// NULLs are excluded from aggregate bags.
	res = mustQuery(t, db, "SELECT COUNT(1 / v) FROM T")
	if f, _ := res.Rows[0][0].AsNumber(); f != 2 {
		t.Errorf("count non-null = %v", f)
	}
}

// TestKleeneThreeValuedLogic is the regression test for the NULL
// short-circuit bug in and/or: any NULL operand used to make the whole
// predicate NULL, but SQL's three-valued logic says a dominant known
// operand decides — TRUE OR NULL is TRUE and FALSE AND NULL is FALSE.
// 1/v is NULL for the v=0 row, giving each case a genuinely NULL operand.
func TestKleeneThreeValuedLogic(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE T (k VARCHAR, v DOUBLE);
INSERT INTO T(k, v) VALUES ('pos', 2), ('zero', 0), ('neg', -1)`)

	// NULL OR TRUE = TRUE: the 'zero' row survives a tautological right
	// disjunct. Before the fix it was dropped (1 row instead of 2).
	res := mustQuery(t, db, "SELECT k FROM T WHERE 1 / v > 0 OR v >= 0")
	if len(res.Rows) != 2 {
		t.Errorf("TRUE-dominant OR kept %d rows, want 2 (pos, zero)", len(res.Rows))
	}
	// Symmetric: the known operand on the left.
	res = mustQuery(t, db, "SELECT k FROM T WHERE v >= 0 OR 1 / v > 0")
	if len(res.Rows) != 2 {
		t.Errorf("left-dominant OR kept %d rows, want 2", len(res.Rows))
	}
	// FALSE AND NULL = FALSE, visible through NOT: NOT(FALSE) keeps the
	// row where NOT(NULL) would drop it.
	res = mustQuery(t, db, "SELECT k FROM T WHERE NOT (v > 0 AND 1 / v > 0)")
	if len(res.Rows) != 2 {
		t.Errorf("negated FALSE-dominant AND kept %d rows, want 2 (zero, neg)", len(res.Rows))
	}
	// Genuinely undecidable combinations stay NULL and drop the row.
	res = mustQuery(t, db, "SELECT k FROM T WHERE 1 / v > 0 OR v < 0")
	if len(res.Rows) != 2 {
		t.Errorf("NULL OR FALSE kept %d rows, want 2 (pos, neg)", len(res.Rows))
	}
	res = mustQuery(t, db, "SELECT k FROM T WHERE 1 / v > 0 AND v >= 0")
	if len(res.Rows) != 1 {
		t.Errorf("NULL AND TRUE kept %d rows, want 1 (pos)", len(res.Rows))
	}
	// In the select list the Kleene result is a value: TRUE OR NULL
	// emits true rather than a dropped row.
	res = mustQuery(t, db, "SELECT k, v >= 0 OR 1 / v > 0 FROM T")
	if len(res.Rows) != 3 {
		t.Errorf("select-list OR produced %d rows, want 3 (no NULL output)", len(res.Rows))
	}
	for _, row := range res.Rows {
		want := row[0].String() != "neg"
		if b, ok := row[1].AsBool(); !ok || b != want {
			t.Errorf("row %v: OR value = %v, want %v", row[0], row[1], want)
		}
	}
}

func TestScalarFunctions(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE); INSERT INTO T(v) VALUES (8)")
	res := mustQuery(t, db, "SELECT LOG(v, 2), LN(EXP(v)), SQRT(v * 2), ABS(-v), POW(v, 2), ROUND(v / 3) FROM T")
	want := []float64{3, 8, 4, 8, 64, 3}
	for i, w := range want {
		if f, _ := res.Rows[0][i].AsNumber(); math.Abs(f-w) > 1e-9 {
			t.Errorf("col %d = %v, want %v", i, f, w)
		}
	}
}

func TestShiftFunction(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (q QUARTER, v DOUBLE); INSERT INTO T(q, v) VALUES ('2001-Q1', 1)")
	res := mustQuery(t, db, "SELECT SHIFT(q, 2), q + 1, q - 1 FROM T")
	if res.Rows[0][0].String() != "2001-Q3" || res.Rows[0][1].String() != "2001-Q2" || res.Rows[0][2].String() != "2000-Q4" {
		t.Errorf("shift results = %v", res.Rows[0])
	}
}

// TestPeriodArithmeticCommutes: a period on either side of + is the same
// shift (1 + Q used to fall into the numeric path and error out), its
// inferred column type is a period, and 1 - Q stays a clear error rather
// than a confusing "non-numeric values" one.
func TestPeriodArithmeticCommutes(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (q QUARTER, v DOUBLE); INSERT INTO T(q, v) VALUES ('2001-Q1', 1)")
	res := mustQuery(t, db, "SELECT 1 + q, q + 1 FROM T")
	if res.Rows[0][0].String() != "2001-Q2" || res.Rows[0][1].String() != "2001-Q2" {
		t.Errorf("1 + q results = %v", res.Rows[0])
	}
	if res.Cols[0].Type.Kind != KPeriod || res.Cols[0].Type.Freq != model.Quarterly {
		t.Errorf("inferred type of 1 + q = %v, want quarterly period", res.Cols[0].Type)
	}
	// Period shifts join symmetrically: the paper's G1.Q = G2.Q - 1
	// condition can equally be written G1.Q + 1 = G2.Q or 1 + G1.Q = G2.Q.
	res = mustQuery(t, db, "SELECT a.q FROM T a, T b WHERE 1 + a.q = SHIFT(b.q, 1)")
	if len(res.Rows) != 1 {
		t.Errorf("commuted shift join rows = %d, want 1", len(res.Rows))
	}
	if _, err := db.Query("SELECT 1 - q FROM T"); err == nil ||
		!strings.Contains(err.Error(), "cannot subtract a period") {
		t.Errorf("1 - q error = %v, want explicit period-subtraction error", err)
	}
	if _, err := db.Query("SELECT 1.5 + q FROM T"); err == nil ||
		!strings.Contains(err.Error(), "integer offset") {
		t.Errorf("1.5 + q error = %v, want integer-offset error", err)
	}
}

// TestDeleteAndDrop: DELETE and DROP are no statements of the dialect. A
// script holding one is refused before any of it runs, so the table keeps its
// rows and a table the script would create is not there.
func TestDeleteAndDrop(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE); INSERT INTO T(v) VALUES (1), (2), (3)")
	for _, stmt := range []string{"DELETE FROM T WHERE v >= 2", "DELETE FROM T", "DROP TABLE T", "DROP TABLE IF EXISTS T", "DROP VIEW W"} {
		if err := db.Exec("CREATE TABLE U (v DOUBLE); " + stmt); err == nil {
			t.Errorf("Exec(%q) succeeded", stmt)
		}
	}
	if tab, ok := db.Table("t"); !ok || len(tab.Rows) != 3 {
		t.Errorf("T after the refused statements: %v", tab)
	}
	if _, ok := db.Table("u"); ok {
		t.Error("a refused script created a table")
	}
}

func TestErrors(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE)")
	bad := []string{
		"CREATE TABLE T (v DOUBLE)",                 // duplicate table
		"CREATE TABLE U (v BLOB)",                   // unknown type
		"SELECT v FROM NOPE",                        // unknown table
		"SELECT nope FROM T",                        // unknown column
		"SELECT v FROM T WHERE",                     // syntax
		"INSERT INTO T(nope) VALUES (1)",            // unknown column
		"INSERT INTO T(v) VALUES (1, 2)",            // arity
		"SELECT v FROM NOFN(T)",                     // unknown tabular function
		"INSERT INTO T(v) VALUES ('abc')",           // coercion failure
		"SELECT SUM(v) + v FROM T WHERE SUM(v) = 1", // aggregate in WHERE
		"FROB TABLE T",                              // unknown statement
		"SELECT v FROM T ORDER BY v",                // ORDER BY is no clause of the dialect
	}
	for _, sql := range bad {
		if err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q): want error", sql)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE A (x DOUBLE); CREATE TABLE B (x DOUBLE);
INSERT INTO A(x) VALUES (1); INSERT INTO B(x) VALUES (2)`)
	if _, err := db.Query("SELECT x FROM A, B"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("want ambiguity error, got %v", err)
	}
	res := mustQuery(t, db, "SELECT A.x, B.x FROM A, B")
	if len(res.Rows) != 1 {
		t.Errorf("cross join rows = %d", len(res.Rows))
	}
}

func TestCubeBridge(t *testing.T) {
	sch := model.NewSchema("GDP", []model.Dim{{Name: "q", Type: model.TQuarter}}, "g")
	c := model.NewCube(sch)
	_ = c.Put([]model.Value{model.Per(model.NewQuarterly(2001, 1))}, 480)
	_ = c.Put([]model.Value{model.Per(model.NewQuarterly(2001, 2))}, 1890)

	db := NewDB()
	if err := db.LoadCube(c); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, "SELECT q, g FROM GDP")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	back, err := db.ExtractCube(sch)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c, model.Eps) {
		t.Error("round trip through SQL table lost data")
	}
}

func TestInsertWithoutColumnList(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (a DOUBLE, b VARCHAR); INSERT INTO T VALUES (1, 'x')")
	tab, _ := db.Table("t")
	if len(tab.Rows) != 1 || tab.Rows[0][1].String() != "x" {
		t.Errorf("rows = %v", tab.Rows)
	}
}

func TestStringEscapes(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (s VARCHAR); INSERT INTO T(s) VALUES ('it''s')")
	res := mustQuery(t, db, "SELECT s FROM T")
	if res.Rows[0][0].String() != "it's" {
		t.Errorf("escape = %q", res.Rows[0][0])
	}
}

func TestQuotedIdentifiersAndComments(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `-- a comment
CREATE TABLE "Mixed" ("Col" DOUBLE); -- trailing
INSERT INTO Mixed(col) VALUES (7)`)
	res := mustQuery(t, db, `SELECT "Col" FROM "Mixed"`)
	if f, _ := res.Rows[0][0].AsNumber(); f != 7 {
		t.Errorf("quoted ident = %v", res.Rows[0][0])
	}
}

func TestCountStarVsCountExpr(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE); INSERT INTO T(v) VALUES (0), (1), (2)")
	res := mustQuery(t, db, "SELECT COUNT(*) FROM T")
	if f, _ := res.Rows[0][0].AsNumber(); f != 3 {
		t.Errorf("count(*) = %v", f)
	}
}

func TestQueryRejectsMultipleStatements(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE)")
	if _, err := db.Query("SELECT v FROM T; SELECT v FROM T"); err == nil {
		t.Error("Query with two statements must fail")
	}
	if _, err := db.Query("INSERT INTO T(v) VALUES (1)"); err == nil {
		t.Error("Query with non-select must fail")
	}
}
