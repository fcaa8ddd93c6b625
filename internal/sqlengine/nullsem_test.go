package sqlengine

import (
	"testing"

	"exlengine/internal/model"
)

// The dialect has no NULL literal: NULL is an undefined point, such as
// (a / 0), and that is what these tests compute with.

// nullDB builds a one-row table so scalar expressions can be evaluated
// through the select evaluator. SELECT outputs that evaluate to NULL drop
// the row, so "expression is NULL" is observed as zero result rows with
// no error.
func nullDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE ONE (a DOUBLE)`)
	seed(t, db, "ONE", []any{7})
	return db
}

// queryRows runs a SELECT and returns the number of result rows, failing
// the test on any error.
func queryRows(t *testing.T, db *DB, sql string) int {
	t.Helper()
	return len(mustQuery(t, db, sql).Rows)
}

// TestUnaryMinusNullIsNull: -NULL propagates NULL rather than erroring.
func TestUnaryMinusNullIsNull(t *testing.T) {
	v, err := applyNeg(model.Value{})
	if err != nil {
		t.Fatalf("applyNeg(NULL): unexpected error %v", err)
	}
	if v.IsValid() {
		t.Fatalf("applyNeg(NULL) = %v, want NULL", v)
	}
	db := nullDB(t)
	if n := queryRows(t, db, `SELECT a, -(a / 0) AS x FROM ONE`); n != 0 {
		t.Fatalf("SELECT -(a / 0) kept %d rows, want 0 (NULL output drops the row)", n)
	}
}

// TestComparisonsWithNullAreNull: = is NULL-strict — NULL = x is NULL
// (unknown), never TRUE or FALSE — and a NULL conjunct drops the row
// whatever the other conjuncts say.
func TestComparisonsWithNullAreNull(t *testing.T) {
	null := model.Value{}
	seven := model.Num(7)
	for _, pair := range [][2]model.Value{{null, seven}, {seven, null}, {null, null}} {
		v, err := applyBinary("=", arith("="), pair[0], pair[1])
		if err != nil {
			t.Fatalf("applyBinary(=, %v, %v): unexpected error %v", pair[0], pair[1], err)
		}
		if v.IsValid() {
			t.Fatalf("applyBinary(=, %v, %v) = %v, want NULL", pair[0], pair[1], v)
		}
	}

	db := nullDB(t)
	for _, where := range []string{
		`a = (a / 0)`,
		`(a / 0) = (a / 0)`, // NULL = NULL is unknown too, not TRUE
		`a = 7 AND a = (a / 0)`,
		`a = (a / 0) AND a = 7`,
	} {
		if n := queryRows(t, db, `SELECT a FROM ONE WHERE `+where); n != 0 {
			t.Fatalf("WHERE %s kept %d rows, want 0", where, n)
		}
	}
	if n := queryRows(t, db, `SELECT a FROM ONE WHERE a = 7 AND a + 1 = 8`); n != 1 {
		t.Fatalf("WHERE a = 7 AND a + 1 = 8 kept %d rows, want 1", n)
	}
}

// TestArithmeticWithNullIsNull: + - * / over a NULL operand yields NULL,
// aligning the SQL backend with frame NA and ETL dropped-row semantics.
func TestArithmeticWithNullIsNull(t *testing.T) {
	null := model.Value{}
	seven := model.Num(7)
	for _, op := range []string{"+", "-", "*", "/"} {
		for _, pair := range [][2]model.Value{{null, seven}, {seven, null}, {null, null}} {
			v, err := applyBinary(op, arith(op), pair[0], pair[1])
			if err != nil {
				t.Fatalf("applyBinary(%s, %v, %v): unexpected error %v", op, pair[0], pair[1], err)
			}
			if v.IsValid() {
				t.Fatalf("applyBinary(%s, %v, %v) = %v, want NULL", op, pair[0], pair[1], v)
			}
		}
	}

	db := nullDB(t)
	for _, op := range []string{"+", "-", "*", "/"} {
		if n := queryRows(t, db, `SELECT a, a `+op+` (a / 0) AS x FROM ONE`); n != 0 {
			t.Fatalf("SELECT a %s (a / 0) kept %d rows, want 0 (NULL output drops the row)", op, n)
		}
	}
	// NULL inside a scalar function call also propagates.
	if n := queryRows(t, db, `SELECT a, abs(a / 0) AS x FROM ONE`); n != 0 {
		t.Fatalf("SELECT abs(a / 0) kept %d rows, want 0", n)
	}
	// Aggregates skip NULLs: a bag of nothing but NULL yields no row.
	res := mustQuery(t, db, `SELECT sum(a + (a / 0)) AS s FROM ONE GROUP BY a`)
	if len(res.Rows) != 0 {
		t.Fatalf("sum over all-NULL bag should yield no row, got %d rows", len(res.Rows))
	}
}

// TestJoinKeysNeverMatchNull: hash-join equality is not TRUE for NULL =
// NULL — a NULL key matches nothing on either side. A table holds no NULL,
// so the keys are undefined points: v / v where v is 0.
func TestJoinKeysNeverMatchNull(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE L (k VARCHAR, x DOUBLE); CREATE TABLE R (k VARCHAR, y DOUBLE)`)
	seed(t, db, "L", []any{"a", 1}, []any{"b", 0})
	seed(t, db, "R", []any{"a", 1}, []any{"b", 0})
	res := mustQuery(t, db, `SELECT l.k AS k, l.x AS x, r.y AS y FROM L l, R r WHERE l.x / l.x = r.y / r.y`)
	if len(res.Rows) != 1 {
		t.Fatalf("join matched %d rows, want 1 (NULL keys must not match)", len(res.Rows))
	}
	if k, _ := res.Rows[0][0].AsString(); k != "a" {
		t.Fatalf("join kept wrong row: k = %v, want a", res.Rows[0][0])
	}
}

// TestAggregatesOverEmptyInput pins the empty-bag rule for global
// aggregates: SUM/AVG/MIN/MAX have no value over zero rows, so the NULL
// output drops the row; COUNT answers 0 and the row survives. With a
// GROUP BY there are no groups at all, so even COUNT yields no row —
// which is exactly the chase's behavior, where a group exists only if
// some defined point created it.
func TestAggregatesOverEmptyInput(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		db := NewDB()
		mustExec(t, db, `CREATE TABLE E (g VARCHAR, v DOUBLE);`)
		for _, fn := range []string{"sum", "avg", "min", "max"} {
			if n := queryRows(t, db, `SELECT `+fn+`(v) AS s FROM E`); n != 0 {
				t.Fatalf("%s over empty table kept %d rows, want 0", fn, n)
			}
		}
		for _, q := range []string{`SELECT count(1) AS c FROM E`, `SELECT count(v) AS c FROM E`} {
			res := mustQuery(t, db, q)
			if len(res.Rows) != 1 {
				t.Fatalf("%s: got %d rows, want 1", q, len(res.Rows))
			}
			if c, _ := res.Rows[0][0].AsNumber(); c != 0 {
				t.Fatalf("%s = %v, want 0", q, res.Rows[0][0])
			}
		}
		if n := queryRows(t, db, `SELECT g, count(v) AS c FROM E GROUP BY g`); n != 0 {
			t.Fatalf("grouped count over empty table kept %d rows, want 0 (no groups)", n)
		}
	})
}

// TestAggregatesOverAllNullBag pins the all-NULL-bag rule: NULL
// arguments are not part of the bag, so a group whose every argument is
// NULL behaves like an empty bag — SUM/AVG/MIN/MAX yield NULL (row
// dropped), COUNT(v) yields 0, and COUNT(1) still counts the rows. A table
// holds no NULL, so the argument is v * v / v, undefined where v is 0.
func TestAggregatesOverAllNullBag(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		db := NewDB()
		mustExec(t, db, `CREATE TABLE AN (g VARCHAR, i INTEGER, v DOUBLE)`)
		seed(t, db, "AN", []any{"x", 1, 0}, []any{"x", 2, 0}, []any{"y", 1, 5})
		const arg = "v * v / v"
		for _, fn := range []string{"sum", "avg", "min", "max"} {
			res := mustQuery(t, db, `SELECT g, `+fn+`(`+arg+`) AS s FROM an GROUP BY g`)
			if len(res.Rows) != 1 {
				t.Fatalf("%s: got %d rows, want 1 (all-NULL group drops)", fn, len(res.Rows))
			}
			if g, _ := res.Rows[0][0].AsString(); g != "y" {
				t.Fatalf("%s kept group %v, want y", fn, res.Rows[0][0])
			}
		}
		res := mustQuery(t, db, `SELECT g, count(`+arg+`) AS c FROM an GROUP BY g`)
		if len(res.Rows) != 2 {
			t.Fatalf("count(v): got %d rows, want 2", len(res.Rows))
		}
		if c, _ := res.Rows[0][1].AsNumber(); c != 0 {
			t.Fatalf("count(v) over all-NULL bag = %v, want 0", res.Rows[0][1])
		}
		if c, _ := res.Rows[1][1].AsNumber(); c != 1 {
			t.Fatalf("count(v) over {5} = %v, want 1", res.Rows[1][1])
		}
		res = mustQuery(t, db, `SELECT g, count(1) AS c FROM an GROUP BY g`)
		if c, _ := res.Rows[0][1].AsNumber(); c != 2 {
			t.Fatalf("count(1) over all-NULL bag = %v, want 2 (1 is defined on every row)", res.Rows[0][1])
		}
	})
}

// TestIsNullPredicate pins x IS NOT NULL: the one operator that maps
// unknown to a known boolean, letting a generated COUNT leave undefined
// points out of its groups instead of relying on the bag to skip them. IS
// NULL is no form of the dialect.
func TestIsNullPredicate(t *testing.T) {
	t.Run("vector", func(t *testing.T) {
		db := NewDB()
		mustExec(t, db, `CREATE TABLE N (k VARCHAR, v DOUBLE)`)
		seed(t, db, "N", []any{"a", 1}, []any{"b", 0})
		res := mustQuery(t, db, `SELECT k FROM n WHERE 1 / v IS NOT NULL`)
		if len(res.Rows) != 1 || res.Rows[0][0].String() != "a" {
			t.Fatalf("IS NOT NULL = %v, want [a]", res.Rows)
		}
		// IS NOT NULL of a computed NULL (undefined point) is FALSE too.
		if n := queryRows(t, db, `SELECT k FROM n WHERE ln(0 - 1) IS NOT NULL`); n != 0 {
			t.Fatalf("ln(-1) IS NOT NULL kept %d rows, want 0", n)
		}
		refused(t, db, `INSERT INTO n(k) SELECT k AS k FROM n WHERE v IS NULL`)
	})
}
