package sqlengine

import (
	"math"
	"testing"
)

func TestNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE A (x DOUBLE); CREATE TABLE B (y DOUBLE);
INSERT INTO A(x) VALUES (1), (2), (3);
INSERT INTO B(y) VALUES (2), (3)`)
	res := mustQuery(t, db, "SELECT A.x, B.y FROM A, B WHERE A.x < B.y")
	if len(res.Rows) != 3 { // (1,2), (1,3), (2,3)
		t.Fatalf("rows = %d: %s", len(res.Rows), res)
	}
	if res.Rows[0][0].String() != "1" || res.Rows[0][1].String() != "2" {
		t.Errorf("first row = %v", res.Rows[0])
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE A (k DOUBLE, a DOUBLE);
CREATE TABLE B (k DOUBLE, b DOUBLE);
CREATE TABLE C (k DOUBLE, c DOUBLE);
INSERT INTO A(k, a) VALUES (1, 10), (2, 20);
INSERT INTO B(k, b) VALUES (1, 100), (2, 200);
INSERT INTO C(k, c) VALUES (1, 1000), (3, 3000)`)
	res := mustQuery(t, db, `
SELECT A.k, a + b + c AS s
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
	mustExec(t, db, `
CREATE TABLE T (a VARCHAR, b DOUBLE);
INSERT INTO T(a, b) VALUES ('x', 2), ('x', 1), ('a', 9)`)
	res := mustQuery(t, db, "SELECT a, b FROM T")
	if res.Rows[0][0].String() != "a" || res.Rows[1][1].String() != "1" {
		t.Errorf("order = %v", res.Rows)
	}
}

func TestComparisonOperators(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE); INSERT INTO T(v) VALUES (1), (2), (3)")
	cases := map[string]int{
		"v = 2":            1,
		"v <> 2":           2,
		"v < 2":            1,
		"v <= 2":           2,
		"v > 2":            1,
		"v >= 2":           2,
		"v != 2":           2,
		"NOT v = 2":        2,
		"v = 1 OR v = 3":   2,
		"v >= 1 AND v < 3": 2,
	}
	for cond, want := range cases {
		res := mustQuery(t, db, "SELECT v FROM T WHERE "+cond)
		if len(res.Rows) != want {
			t.Errorf("WHERE %s: %d rows, want %d", cond, len(res.Rows), want)
		}
	}
}

func TestGroupByMultipleAndHaving(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE T (a VARCHAR, b VARCHAR, v DOUBLE);
INSERT INTO T(a, b, v) VALUES ('x','p',1), ('x','p',2), ('x','q',3), ('y','p',4)`)
	res := mustQuery(t, db, "SELECT a, b, SUM(v) s FROM T GROUP BY a, b")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if f, _ := res.Rows[0][2].AsNumber(); f != 3 {
		t.Errorf("sum(x,p) = %v", f)
	}
}

func TestScalarOverAggregate(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE T (k VARCHAR, v DOUBLE);
INSERT INTO T(k, v) VALUES ('a', 3), ('a', 4)`)
	// Arithmetic over aggregates, and a scalar function of an aggregate.
	res := mustQuery(t, db, "SELECT k, SUM(v) * 2, SQRT(MAX(v) * MAX(v)) FROM T GROUP BY k")
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
CREATE TABLE Y (y YEAR, v DOUBLE);
INSERT INTO D(d, v) VALUES ('2001-06-15', 1);
INSERT INTO M(m, v) VALUES ('2001-06', 2);
INSERT INTO Y(y, v) VALUES ('2001', 3)`)
	res := mustQuery(t, db, "SELECT MONTH(d), YEAR(d) FROM D")
	if res.Rows[0][0].String() != "2001-06" || res.Rows[0][1].String() != "2001" {
		t.Errorf("conversions = %v", res.Rows[0])
	}
	// Joining a day-derived month against the month table.
	res = mustQuery(t, db, "SELECT D.v + M.v FROM D, M WHERE M.m = MONTH(D.d)")
	if len(res.Rows) != 1 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	if f, _ := res.Rows[0][0].AsNumber(); f != 3 {
		t.Errorf("sum = %v", f)
	}
	// Frequency mismatch on insert is rejected.
	if err := db.Exec("INSERT INTO Y(y, v) VALUES ('2001-06', 9)"); err == nil {
		t.Error("monthly literal into YEAR column must fail")
	}
}

func TestInsertSelectArityMismatch(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE A (v DOUBLE); CREATE TABLE B (x DOUBLE, y DOUBLE); INSERT INTO B(x,y) VALUES (1,2)")
	if err := db.Exec("INSERT INTO A(v) SELECT x, y FROM B"); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestIntegerColumnCoercion(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (i INTEGER, v DOUBLE); INSERT INTO T(i, v) VALUES (3, 1.5)")
	tab, _ := db.Table("t")
	if tab.Rows[0][0].Kind().String() != "int" {
		t.Errorf("column kind = %v", tab.Rows[0][0].Kind())
	}
	if err := db.Exec("INSERT INTO T(i, v) VALUES (3.5, 1)"); err == nil {
		t.Error("fractional into INTEGER must fail")
	}
	// Integral float is accepted.
	mustExec(t, db, "INSERT INTO T(i, v) VALUES (4.0, 1)")
}

func TestSelectLiteralOnly(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE); INSERT INTO T(v) VALUES (1), (2)")
	res := mustQuery(t, db, "SELECT 7 FROM T")
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
