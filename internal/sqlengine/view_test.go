package sqlengine

import (
	"context"
	"strings"
	"testing"
)

func TestCreateAndQueryView(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE T (k VARCHAR, v DOUBLE);
CREATE VIEW W AS SELECT k, SUM(v) AS s FROM T GROUP BY k`)
	seed(t, db, "T", []any{"a", 1}, []any{"a", 2}, []any{"b", 10})
	res := mustQuery(t, db, "SELECT k, s FROM W")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if f, _ := res.Rows[0][1].AsNumber(); f != 3 {
		t.Errorf("W(a) = %v", f)
	}
	// Views see fresh base data on every reference.
	seed(t, db, "T", []any{"a", 100})
	res = mustQuery(t, db, "SELECT s FROM W WHERE k = 'a'")
	if f, _ := res.Rows[0][0].AsNumber(); f != 103 {
		t.Errorf("W(a) after insert = %v", f)
	}
}

func TestViewOverView(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE T (v DOUBLE);
CREATE VIEW A AS SELECT v * 2 AS w FROM T;
CREATE VIEW B AS SELECT w + 1 AS x FROM A`)
	seed(t, db, "T", []any{1}, []any{2})
	res := mustQuery(t, db, "SELECT x FROM B")
	if len(res.Rows) != 2 || res.Rows[1][0].String() != "5" {
		t.Errorf("B = %v", res.Rows)
	}
}

func TestViewAsTabularFunctionArgument(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE S (t YEAR, v DOUBLE);
CREATE VIEW D AS SELECT t, v * 2 AS v FROM S`)
	seed(t, db, "S", []any{"2000", 1}, []any{"2001", 2}, []any{"2002", 3})
	res := mustQuery(t, db, "SELECT t, v FROM CUMSUM(D)")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if f, _ := res.Rows[2][1].AsNumber(); f != 12 {
		t.Errorf("cumsum over view = %v", f)
	}
}

func TestViewErrors(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE T (v DOUBLE); CREATE VIEW W AS SELECT v FROM T")
	bad := []string{
		"CREATE VIEW W AS SELECT v FROM T", // duplicate view
		"CREATE VIEW T AS SELECT v FROM T", // clashes with table
		"CREATE TABLE W (v DOUBLE)",        // clashes with view
		"CREATE VIEW X AS 1",               // needs SELECT
		"INSERT INTO W(v) SELECT v FROM T", // views are not writable
	}
	for _, sql := range bad {
		if err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q): want error", sql)
		}
	}
}

func TestCyclicViews(t *testing.T) {
	db := NewDB()
	// Two views referencing each other: definable (lazy), but evaluation
	// must detect the cycle instead of recursing forever.
	mustExec(t, db, `
CREATE VIEW A AS SELECT x FROM B;
CREATE VIEW B AS SELECT x FROM A`)
	_, err := query(context.Background(), db, "SELECT x FROM A")
	if err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("want cyclic view error, got %v", err)
	}
}
