package sqlengine

import (
	"context"
	"strings"
	"testing"

	"exlengine/internal/model"
)

// TestSeriesTabularDuplicatePeriodsDeterministic: projecting a panel onto its
// time column gives a period several values, which once made a tabular
// function's series depend on the order its rows came in. Such a projection is
// no cube: the view fails at the first conflict in its sorted rows, the same
// one whatever order the panel's tuples were put in, and CUMSUM never runs.
func TestSeriesTabularDuplicatePeriodsDeterministic(t *testing.T) {
	const periods, regions = 8, 8
	run := func(reverse bool) error {
		c := model.NewCube(model.NewSchema("P", []model.Dim{{Name: "t", Type: model.TQuarter}, {Name: "r", Type: model.TInt}}, "v"))
		n := periods * regions
		for i := 0; i < n; i++ {
			k := i
			if reverse {
				k = n - 1 - i
			}
			dims := []model.Value{model.Per(model.NewQuarterly(2000, 1).Shift(int64(k % periods))), model.Int(int64(k / periods))}
			if err := c.Put(dims, float64(k)); err != nil {
				t.Fatal(err)
			}
		}
		db := loadedDB(t, c)
		mustExec(t, db, "CREATE VIEW S AS SELECT t, v FROM P")
		_, err := query(context.Background(), db, "SELECT t, v FROM CUMSUM(S)")
		return err
	}
	a, b := run(false), run(true)
	const want = "S[2000-Q1] has values 0 and 8"
	if a == nil || b == nil || !strings.HasSuffix(a.Error(), want) || a.Error() != b.Error() {
		t.Errorf("CUMSUM over a panel projected onto its periods: %v and %v, want … %s both", a, b, want)
	}
}
