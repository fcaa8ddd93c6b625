package sqlengine

import (
	"context"
	"fmt"
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

// parseQuery parses one SELECT, which the dialect has only inside CREATE
// VIEW and INSERT.
func parseQuery(src string) (*selectStmt, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	s, err := p.parseSelect()
	if err == nil && p.cur().kind != tEOF {
		err = fmt.Errorf("sql: unexpected %q after the SELECT", p.cur().text)
	}
	return s, err
}

// answer is a SELECT's result as rows, in the order the result reads them.
type answer struct {
	Cols []Column
	Rows [][]model.Value
}

// String renders the answer as a fixed-width text grid: the column names,
// then one line per row, tab-separated.
func (a *answer) String() string {
	var b strings.Builder
	for i, c := range a.Cols {
		if i > 0 {
			b.WriteString("\t")
		}
		b.WriteString(c.Name)
	}
	b.WriteString("\n")
	for _, r := range a.Rows {
		for i, v := range r {
			if i > 0 {
				b.WriteString("\t")
			}
			b.WriteString(v.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// query evaluates one SELECT through the engine's select evaluator,
// returning its answer.
func query(ctx context.Context, db *DB, src string) (*answer, error) {
	s, err := parseQuery(src)
	if err != nil {
		return nil, err
	}
	res, err := db.evalSelectCtx(ctx, s)
	if err != nil {
		return nil, err
	}
	a := &answer{Cols: res.cols}
	for _, row := range sortedRows(res.all) {
		a.Rows = append(a.Rows, res.all.Row(row, nil))
	}
	return a, nil
}

func mustQuery(t *testing.T, db *DB, sql string) *answer {
	t.Helper()
	res, err := query(context.Background(), db, sql)
	if err != nil {
		t.Fatalf("query(%q): %v", sql, err)
	}
	return res
}

// seed loads the version the rows make into an empty table, each value
// coerced to its column's type as INSERT coerces it: a string into a period or
// VARCHAR column, a number into a numeric one. The last value of a row is its
// measure.
func seed(t *testing.T, db *DB, table string, rows ...[]any) {
	t.Helper()
	tab, ok := db.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	cols := columns(tab.Cube().Schema())
	b := model.NewBuilder(tab.Cube().Schema())
	for _, r := range rows {
		row := make([]model.Value, len(r))
		for i, x := range r {
			var v model.Value
			switch x := x.(type) {
			case string:
				v = model.Str(x)
			case int:
				v = model.Num(float64(x))
			case float64:
				v = model.Num(x)
			}
			cv, err := coerceToColumn(v, cols[i].Type)
			if err != nil {
				t.Fatalf("%s row %v: %v", table, r, err)
			}
			row[i] = cv
		}
		m, _ := row[len(row)-1].AsNumber()
		if err := b.Add(row[:len(row)-1], m); err != nil {
			t.Fatalf("%s row %v: %v", table, r, err)
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", table, err)
	}
	if err := db.LoadCube(c); err != nil {
		t.Fatal(err)
	}
}

// refused checks that Exec refuses a script at parse time: the statement
// before the refused one has not run either.
func refused(t *testing.T, db *DB, stmt string) {
	t.Helper()
	if err := db.Exec("CREATE TABLE REFUSAL_PROBE (v DOUBLE); " + stmt); err == nil {
		t.Errorf("Exec(%q) succeeded; the dialect has no such form", stmt)
	}
	if _, ok := db.Table("refusal_probe"); ok {
		t.Fatalf("Exec(%q) ran a statement of the script it refused", stmt)
	}
}

func seedGDP(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE PQR (q QUARTER, r VARCHAR, p DOUBLE);
CREATE TABLE RGDPPC (q QUARTER, r VARCHAR, g DOUBLE)`)
	seed(t, db, "PQR", []any{"2001-Q1", "north", 15}, []any{"2001-Q2", "north", 35},
		[]any{"2001-Q1", "south", 150}, []any{"2001-Q2", "south", 350})
	seed(t, db, "RGDPPC", []any{"2001-Q1", "north", 2}, []any{"2001-Q2", "north", 4},
		[]any{"2001-Q1", "south", 3}, []any{"2001-Q2", "south", 5})
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := seedGDP(t)
	mustExec(t, db, `CREATE TABLE COPY (q QUARTER, r VARCHAR, p DOUBLE);
INSERT INTO COPY(q, r, p) SELECT q AS q, r AS r, p AS p FROM PQR`)
	res := mustQuery(t, db, "SELECT q, r, p FROM COPY")
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
	mustExec(t, db, `CREATE TABLE GDPT (q QUARTER, g DOUBLE)`)
	seed(t, db, "GDPT", []any{"2001-Q1", 480}, []any{"2001-Q2", 1890}, []any{"2001-Q3", 2000})
	mustExec(t, db, `
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
	mustExec(t, db, `CREATE TABLE PDR (d DAY, r VARCHAR, p DOUBLE)`)
	seed(t, db, "PDR", []any{"2001-03-30", "north", 10}, []any{"2001-03-31", "north", 20},
		[]any{"2001-04-01", "north", 30}, []any{"2001-04-02", "north", 40})
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
	mustExec(t, db, `CREATE TABLE T (k VARCHAR, i INTEGER, v DOUBLE)`)
	seed(t, db, "T", []any{"a", 1, 4}, []any{"a", 2, 1}, []any{"a", 3, 3}, []any{"a", 4, 2}, []any{"b", 1, 10})
	res := mustQuery(t, db, `
SELECT k, SUM(v) AS s, AVG(v) AS a, MIN(v) AS mn, MAX(v) AS mx, COUNT(v) AS c, MEDIAN(v) AS md, STDDEV(v) AS sd
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

// TestNestedAggregateRefused: an aggregate over an aggregate has no group to
// fold in; the refusal names the outer call.
func TestNestedAggregateRefused(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (k VARCHAR, v DOUBLE); CREATE TABLE U (k VARCHAR, v DOUBLE)")
	seed(t, db, "T", []any{"a", 1})
	for _, agg := range []string{"SUM(AVG(v))", "MAX(1 + COUNT(v))"} {
		err := db.Exec("INSERT INTO U(k, v) SELECT k AS k, " + agg + " AS v FROM T GROUP BY k")
		name := strings.ToLower(agg[:strings.Index(agg, "(")])
		if want := "aggregate " + name + " over an aggregate"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", agg, err, want)
		}
	}
}

func TestGlobalAggregateEmptyTable(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE)")
	res := mustQuery(t, db, "SELECT SUM(v) AS s FROM T")
	if len(res.Rows) != 0 {
		t.Errorf("sum over empty table must give no rows (empty bag), got %d", len(res.Rows))
	}
}

func TestTabularFunctions(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE S (t YEAR, v DOUBLE)`)
	seed(t, db, "S", []any{"2000", 1}, []any{"2001", 2}, []any{"2002", 3}, []any{"2003", 4})
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
	mustExec(t, db, `CREATE TABLE T (k VARCHAR, v DOUBLE)`)
	seed(t, db, "T", []any{"a", 2}, []any{"b", 0}, []any{"c", -1})
	// 1/0 is NULL: its row disappears from the output.
	res := mustQuery(t, db, "SELECT k, 1 / v AS x FROM T")
	if len(res.Rows) != 2 {
		t.Errorf("rows with defined 1/v = %d", len(res.Rows))
	}
	// LN of non-positive values is NULL too.
	res = mustQuery(t, db, "SELECT k, LN(v) AS x FROM T")
	if len(res.Rows) != 1 {
		t.Errorf("rows with defined ln = %d", len(res.Rows))
	}
	// NULLs are excluded from aggregate bags.
	res = mustQuery(t, db, "SELECT COUNT(1 / v) AS n FROM T")
	if f, _ := res.Rows[0][0].AsNumber(); f != 2 {
		t.Errorf("count non-null = %v", f)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE)")
	seed(t, db, "T", []any{8})
	res := mustQuery(t, db, "SELECT LOG(v, 2) AS a, LN(EXP(v)) AS b, SQRT(v * 2) AS c, ABS(-v) AS d, POW(v, 2) AS e, ROUND(v / 3) AS f FROM T")
	want := []float64{3, 8, 4, 8, 64, 3}
	for i, w := range want {
		if f, _ := res.Rows[0][i].AsNumber(); math.Abs(f-w) > 1e-9 {
			t.Errorf("col %d = %v, want %v", i, f, w)
		}
	}
}

func TestShiftFunction(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (q QUARTER, v DOUBLE)")
	seed(t, db, "T", []any{"2001-Q1", 1})
	res := mustQuery(t, db, "SELECT SHIFT(q, 2) AS a, q + 1 AS b, q - 1 AS c FROM T")
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
	mustExec(t, db, "CREATE TABLE T (q QUARTER, v DOUBLE)")
	seed(t, db, "T", []any{"2001-Q1", 1})
	res := mustQuery(t, db, "SELECT 1 + q AS a, q + 1 AS b FROM T")
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
	if _, err := query(context.Background(), db, "SELECT 1 - q AS a FROM T"); err == nil ||
		!strings.Contains(err.Error(), "cannot subtract a period") {
		t.Errorf("1 - q error = %v, want explicit period-subtraction error", err)
	}
	if _, err := query(context.Background(), db, "SELECT 1.5 + q AS a FROM T"); err == nil ||
		!strings.Contains(err.Error(), "integer offset") {
		t.Errorf("1.5 + q error = %v, want integer-offset error", err)
	}
}

// TestDeleteAndDrop: DELETE and DROP are no statements of the dialect. A
// script holding one is refused before any of it runs, so the table keeps its
// tuples and a table the script would create is not there.
func TestDeleteAndDrop(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (k INTEGER, v DOUBLE)")
	seed(t, db, "T", []any{1, 1}, []any{2, 2}, []any{3, 3})
	for _, stmt := range []string{"DELETE FROM T WHERE v = 2", "DELETE FROM T", "DROP TABLE T", "DROP TABLE IF EXISTS T", "DROP VIEW W"} {
		refused(t, db, stmt)
	}
	if tab, ok := db.Table("t"); !ok || tab.Cube().Len() != 3 {
		t.Errorf("T after the refused statements: %v", tab)
	}
}

// TestErrors: statements of the dialect that fail, at parse time or when
// they run.
func TestErrors(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE); CREATE TABLE S (s VARCHAR, v DOUBLE)")
	seed(t, db, "S", []any{"abc", 1})
	bad := []string{
		"CREATE TABLE T (v DOUBLE)",                                       // duplicate table
		"CREATE TABLE U (v BLOB)",                                         // unknown type
		"CREATE TABLE U (s VARCHAR)",                                      // no measure
		"CREATE TABLE U (v DOUBLE, s VARCHAR)",                            // the measure is not last
		"CREATE TABLE U (a DOUBLE, v DOUBLE)",                             // two measures
		"INSERT INTO S(s, v) SELECT s AS s, v AS v FROM S",                // S holds a version
		"INSERT INTO T(v, v) SELECT v AS v, v AS v FROM S",                // a column named twice
		"INSERT INTO T(v) SELECT v AS v FROM NOPE",                        // unknown table
		"INSERT INTO T(v) SELECT nope AS v FROM T",                        // unknown column
		"INSERT INTO T(v) SELECT v AS v FROM T WHERE",                     // syntax
		"INSERT INTO T(nope) SELECT v AS v FROM T",                        // unknown column
		"INSERT INTO T(v) SELECT v AS v FROM NOFN(T)",                     // unknown tabular function
		"INSERT INTO T(v) SELECT s AS v FROM S",                           // coercion failure
		"INSERT INTO T(v) SELECT SUM(v) + v AS v FROM T WHERE SUM(v) = 1", // aggregate in WHERE
		"INSERT INTO T(v) SELECT v AS v FROM T GROUP BY SUM(v)",           // aggregate in GROUP BY
		"INSERT INTO T(v) SELECT v AS v FROM MOVAVG(T, x)",                // a tabular function's parameter is a number
		"FROB TABLE T", // unknown statement
		"INSERT INTO T(v) SELECT v AS v FROM T ORDER BY v",                    // ORDER BY is no clause of the dialect
		"INSERT INTO T(v) SELECT v AS v FROM T WHERE v = 1 AND v IS NOT 1",    // IS NOT takes NULL only
		"INSERT INTO T(v) SELECT 'unterminated AS v FROM T",                   // string literal
		"INSERT INTO T(v) SELECT 1e AS v FROM T",                              // number
		"INSERT INTO T(v) SELECT v AS v FROM T WHERE v = 1 AND v = (1 + 2 AS", // parenthesis
		"INSERT INTO T(v) SELECT POW(v) AS v FROM S",                          // one argument of two: once pow(v, v)
		"INSERT INTO T(v) SELECT LN(v, 7, 9) AS v FROM S",                     // three arguments of one
		"INSERT INTO T(v) SELECT ADD(v, 1, 100) AS v FROM S",                  // three arguments of two
	}
	for _, sql := range bad {
		if err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q): want error", sql)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE A (x DOUBLE); CREATE TABLE B (x DOUBLE)`)
	seed(t, db, "A", []any{1})
	seed(t, db, "B", []any{2})
	if _, err := query(context.Background(), db, "SELECT x FROM A, B"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("want ambiguity error, got %v", err)
	}
	res := mustQuery(t, db, "SELECT A.x AS a, B.x AS b FROM A, B")
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

// TestInsertWithoutColumnList: an INSERT names the columns it fills; one
// without the list is refused before its script runs.
func TestInsertWithoutColumnList(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (b VARCHAR, a DOUBLE); CREATE TABLE U (b VARCHAR, a DOUBLE)")
	seed(t, db, "U", []any{"x", 1})
	refused(t, db, "INSERT INTO T SELECT b AS b, a AS a FROM U")
	mustExec(t, db, "INSERT INTO T(a, b) SELECT a AS a, b AS b FROM U")
	tab, _ := db.Table("t")
	if tu := tab.Cube().Tuples(); len(tu) != 1 || tu[0].Dims[0].String() != "x" || tu[0].Measure != 1 {
		t.Errorf("tuples = %v", tu)
	}
}

func TestStringEscapes(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE ONE (a DOUBLE); CREATE TABLE T (s VARCHAR, v DOUBLE)")
	seed(t, db, "ONE", []any{7})
	mustExec(t, db, "INSERT INTO T(s, v) SELECT 'it''s' AS s, a AS v FROM ONE")
	res := mustQuery(t, db, "SELECT s FROM T")
	if res.Rows[0][0].String() != "it's" {
		t.Errorf("escape = %q", res.Rows[0][0])
	}
}

// TestQuotedIdentifiersAndComments: a -- comment runs to the end of its
// line, as in every script sqlgen renders; an identifier is never quoted.
func TestQuotedIdentifiersAndComments(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `-- a comment
CREATE TABLE Mixed (Col DOUBLE); -- trailing
CREATE TABLE ONE (a DOUBLE)`)
	seed(t, db, "ONE", []any{7})
	mustExec(t, db, "INSERT INTO Mixed(col) -- the column list\nSELECT a AS col FROM ONE")
	res := mustQuery(t, db, `SELECT COL FROM MIXED`)
	if f, _ := res.Rows[0][0].AsNumber(); f != 7 {
		t.Errorf("case-folded ident = %v", res.Rows[0][0])
	}
	refused(t, db, `CREATE TABLE "Quoted" (v DOUBLE)`)
}

// TestCountStarVsCountExpr: COUNT counts the defined points of its argument
// — COUNT(1) every row — and COUNT(*) is no form of the dialect.
func TestCountStarVsCountExpr(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (k INTEGER, v DOUBLE)")
	seed(t, db, "T", []any{1, 0}, []any{2, 1}, []any{3, 2})
	res := mustQuery(t, db, "SELECT COUNT(1) AS a, COUNT(1 / v) AS b FROM T")
	if fmt.Sprint(res.Rows) != fmt.Sprint([][]model.Value{{model.Num(3), model.Num(2)}}) {
		t.Errorf("count(1), count(1 / v) = %v, want 3, 2", res.Rows)
	}
	refused(t, db, "CREATE TABLE N (n DOUBLE); INSERT INTO N(n) SELECT COUNT(*) AS n FROM T")
}

// TestOneVersionPerTable: a table takes one version, loaded or inserted, and
// refuses a second; a view or a tabular function's result is a cube too, and
// a SELECT that is none cannot be a view.
func TestOneVersionPerTable(t *testing.T) {
	sch := model.NewSchema("S", []model.Dim{{Name: "t", Type: model.TYear}}, "v")
	s := model.NewCube(sch)
	for i := 0; i < 4; i++ {
		_ = s.Put([]model.Value{model.Per(model.NewAnnual(2000 + i))}, float64(i+1))
	}
	db := NewDB()
	if err := db.LoadCube(s); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE C (t YEAR, v DOUBLE); INSERT INTO C(t, v) SELECT t, v FROM CUMSUM(S)")
	for _, stmt := range []string{
		"INSERT INTO S(t, v) SELECT t, v FROM C",
		"INSERT INTO C(t, v) SELECT t, v FROM S",
	} {
		if err := db.Exec(stmt); err == nil || !strings.Contains(err.Error(), "already holds a version") {
			t.Errorf("%s: err = %v, want a table that already holds a version", stmt, err)
		}
	}
	for _, c := range []*model.Cube{s, model.NewCube(sch.Rename("C"))} {
		if err := db.LoadCube(c); err == nil || !strings.Contains(err.Error(), "already holds a version") {
			t.Errorf("second load of %s: err = %v, want a table that already holds a version", c.Schema().Name, err)
		}
	}
	got, err := db.ExtractCube(sch.Rename("C"))
	if err != nil {
		t.Fatal(err)
	}
	if m := got.Tuples()[3].Measure; m != 10 {
		t.Errorf("C = CUMSUM(S) ends in %v, want 10", m)
	}

	mustExec(t, db, "CREATE VIEW W AS SELECT v, t FROM S; CREATE VIEW X AS SELECT 2000 AS t, v FROM S; CREATE TABLE Y (v DOUBLE)")
	for _, stmt := range []string{
		"INSERT INTO Y(v) SELECT v FROM W", // a DOUBLE before the measure
		"INSERT INTO Y(v) SELECT v FROM X", // four measures for one tuple
		"INSERT INTO Y(v) SELECT v FROM S", // the same, into a table
	} {
		if err := db.Exec(stmt); err == nil {
			t.Errorf("%s: want an error", stmt)
		}
	}
}
