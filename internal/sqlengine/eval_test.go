package sqlengine

import (
	"math"
	"strings"
	"testing"
)

// TestNonEquiJoinFallsBackToNestedLoop: an equality that reads both sides
// on one side is no join key; the join is a cross product with the
// conjunct as a filter above it.
func TestNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE A (i INTEGER, x DOUBLE); CREATE TABLE B (j INTEGER, y DOUBLE)`)
	seed(t, db, "A", []any{1, 1}, []any{2, 2}, []any{3, 3})
	seed(t, db, "B", []any{1, 2}, []any{2, 3})
	res := mustQuery(t, db, "SELECT A.x AS x, B.y AS y FROM A, B WHERE A.x + B.y = 4")
	if len(res.Rows) != 2 { // (1,3), (2,2)
		t.Fatalf("rows = %d: %s", len(res.Rows), res)
	}
	if res.Rows[0][0].String() != "1" || res.Rows[0][1].String() != "3" {
		t.Errorf("first row = %v", res.Rows[0])
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE A (k INTEGER, a DOUBLE);
CREATE TABLE B (k INTEGER, b DOUBLE);
CREATE TABLE C (k INTEGER, c DOUBLE)`)
	seed(t, db, "A", []any{1, 10}, []any{2, 20})
	seed(t, db, "B", []any{1, 100}, []any{2, 200})
	seed(t, db, "C", []any{1, 1000}, []any{3, 3000})
	res := mustQuery(t, db, `
SELECT A.k AS k, a + b + c AS s
FROM A, B, C
WHERE A.k = B.k AND B.k = C.k`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if f, _ := res.Rows[0][1].AsNumber(); f != 1110 {
		t.Errorf("s = %v", f)
	}
}

// TestOrderByMultipleColumns: every SELECT comes out sorted by all its
// columns, left to right.
func TestOrderByMultipleColumns(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE T (a VARCHAR, i INTEGER, b DOUBLE)`)
	seed(t, db, "T", []any{"x", 1, 2}, []any{"x", 2, 1}, []any{"a", 1, 9})
	res := mustQuery(t, db, "SELECT a, b FROM T")
	if res.Rows[0][0].String() != "a" || res.Rows[1][1].String() != "1" {
		t.Errorf("order = %v", res.Rows)
	}
}

// TestComparisonOperators: = is the dialect's one comparison, over numbers,
// strings and periods (a string literal read as a period beside one); the
// others are refused.
func TestComparisonOperators(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (q QUARTER, r VARCHAR, v DOUBLE)")
	seed(t, db, "T", []any{"2001-Q1", "a", 1}, []any{"2001-Q2", "b", 2}, []any{"2001-Q3", "b", 3})
	cases := map[string]int{
		"v = 2":                         1,
		"v = 2 AND r = 'b'":             1,
		"r = 'b'":                       2,
		"q = '2001-Q3'":                 1,
		"'2001-Q3' = q":                 1,
		"v * 2 = v + 1":                 1,
		"v = 2 AND r = 'a'":             0,
		"r = 'b' AND q - 1 = '2001-Q1'": 1,
	}
	for cond, want := range cases {
		res := mustQuery(t, db, "SELECT v FROM T WHERE "+cond)
		if len(res.Rows) != want {
			t.Errorf("WHERE %s: %d rows, want %d", cond, len(res.Rows), want)
		}
	}
	for _, op := range []string{"<>", "!=", "<", "<=", ">", ">="} {
		refused(t, db, "INSERT INTO T(q, r, v) SELECT q AS q, r AS r, v AS v FROM T WHERE v "+op+" 2")
	}
}

func TestGroupByMultipleAndHaving(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE T (a VARCHAR, b VARCHAR, i INTEGER, v DOUBLE)`)
	seed(t, db, "T", []any{"x", "p", 1, 1}, []any{"x", "p", 2, 2}, []any{"x", "q", 1, 3}, []any{"y", "p", 1, 4})
	res := mustQuery(t, db, "SELECT a, b, SUM(v) AS s FROM T GROUP BY a, b")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if f, _ := res.Rows[0][2].AsNumber(); f != 3 {
		t.Errorf("sum(x,p) = %v", f)
	}
}

func TestScalarOverAggregate(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE T (k VARCHAR, i INTEGER, v DOUBLE)`)
	seed(t, db, "T", []any{"a", 1, 3}, []any{"a", 2, 4})
	// Arithmetic over aggregates, and a scalar function of an aggregate.
	res := mustQuery(t, db, "SELECT k, SUM(v) * 2 AS a, SQRT(MAX(v) * MAX(v)) AS b FROM T GROUP BY k")
	if f, _ := res.Rows[0][1].AsNumber(); f != 14 {
		t.Errorf("sum*2 = %v", f)
	}
	if f, _ := res.Rows[0][2].AsNumber(); math.Abs(f-4) > 1e-12 {
		t.Errorf("sqrt(max^2) = %v", f)
	}
}

func TestPeriodColumnsAcrossFrequencies(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE D (d DAY, v DOUBLE);
CREATE TABLE M (m MONTH, v DOUBLE);
CREATE TABLE Y (y YEAR, v DOUBLE)`)
	seed(t, db, "D", []any{"2001-06-15", 1})
	seed(t, db, "M", []any{"2001-06", 2})
	res := mustQuery(t, db, "SELECT MONTH(d) AS m, YEAR(d) AS y FROM D")
	if res.Rows[0][0].String() != "2001-06" || res.Rows[0][1].String() != "2001" {
		t.Errorf("conversions = %v", res.Rows[0])
	}
	// Joining a day-derived month against the month table.
	res = mustQuery(t, db, "SELECT D.v + M.v AS s FROM D, M WHERE M.m = MONTH(D.d)")
	if len(res.Rows) != 1 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	if f, _ := res.Rows[0][0].AsNumber(); f != 3 {
		t.Errorf("sum = %v", f)
	}
	// Frequency mismatch on insert is rejected.
	if err := db.Exec("INSERT INTO Y(y, v) SELECT m AS y, v AS v FROM M"); err == nil {
		t.Error("monthly period into YEAR column must fail")
	}
}

func TestInsertSelectArityMismatch(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE A (v DOUBLE); CREATE TABLE B (x INTEGER, y DOUBLE)")
	seed(t, db, "B", []any{1, 2})
	if err := db.Exec("INSERT INTO A(v) SELECT x, y FROM B"); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestIntegerColumnCoercion(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE S (k VARCHAR, a DOUBLE);
CREATE TABLE T (i INTEGER, v DOUBLE); CREATE TABLE F (i INTEGER, v DOUBLE); CREATE TABLE G (i INTEGER, v DOUBLE)`)
	seed(t, db, "S", []any{"s", 3})
	mustExec(t, db, "INSERT INTO T(i, v) SELECT a AS i, a / 2 AS v FROM S")
	tab, _ := db.Table("t")
	if k := tab.Cube().Tuples()[0].Dims[0].Kind(); k.String() != "int" {
		t.Errorf("column kind = %v", k)
	}
	if err := db.Exec("INSERT INTO F(i, v) SELECT a + 0.5 AS i, a AS v FROM S"); err == nil || !strings.Contains(err.Error(), "cannot coerce") {
		t.Errorf("fractional into INTEGER: err = %v, want a coercion failure", err)
	}
	// Integral float is accepted.
	mustExec(t, db, "INSERT INTO G(i, v) SELECT a + 1.0 AS i, a AS v FROM S")
}

func TestSelectLiteralOnly(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (k INTEGER, v DOUBLE)")
	seed(t, db, "T", []any{1, 1}, []any{2, 2})
	res := mustQuery(t, db, "SELECT 7 AS c FROM T")
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if f, _ := res.Rows[0][0].AsNumber(); f != 7 {
		t.Errorf("literal = %v", f)
	}
}

func TestColTypeStrings(t *testing.T) {
	cases := map[string]string{
		"double": "DOUBLE", "integer": "INTEGER", "varchar": "VARCHAR",
		"day": "DAY", "month": "MONTH", "quarter": "QUARTER", "year": "YEAR",
	}
	for in, want := range cases {
		ct, err := parseColType(in)
		if err != nil {
			t.Fatalf("parseColType(%s): %v", in, err)
		}
		if ct.String() != want {
			t.Errorf("%s -> %s, want %s", in, ct, want)
		}
	}
}
