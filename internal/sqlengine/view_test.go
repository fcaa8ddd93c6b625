package sqlengine

import (
	"context"
	"strings"
	"testing"
)

func TestCreateAndQueryView(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE T (k VARCHAR, i INTEGER, v DOUBLE);
CREATE VIEW W AS SELECT k, SUM(v) AS s FROM T GROUP BY k`)
	// A view is evaluated where it is referenced: over T empty, then loaded.
	if res := mustQuery(t, db, "SELECT k, s FROM W"); len(res.Rows) != 0 {
		t.Fatalf("W over an empty T has %d rows", len(res.Rows))
	}
	seed(t, db, "T", []any{"a", 1, 1}, []any{"a", 2, 2}, []any{"b", 1, 10})
	res := mustQuery(t, db, "SELECT k, s FROM W")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if f, _ := res.Rows[0][1].AsNumber(); f != 3 {
		t.Errorf("W(a) = %v", f)
	}
}

func TestViewOverView(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
CREATE TABLE T (k INTEGER, v DOUBLE);
CREATE VIEW A AS SELECT k, v * 2 AS w FROM T;
CREATE VIEW B AS SELECT k, w + 1 AS x FROM A`)
	seed(t, db, "T", []any{1, 1}, []any{2, 2})
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
