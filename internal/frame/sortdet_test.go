package frame

import (
	"testing"

	"exlengine/internal/model"
)

// TestSeriesOpDuplicatePeriodsDeterministic is the regression test for
// the unstable series sort: a frame with duplicate periods used to order
// equal periods by row position, so CUMSUM's running totals depended on
// upstream row order. The tie-break on value makes the output a pure
// function of the frame's contents.
func TestSeriesOpDuplicatePeriodsDeterministic(t *testing.T) {
	const periods, dups = 8, 8
	mkFrame := func(reverse bool) *Frame {
		var rows [][]model.Value
		n := periods * dups
		for i := 0; i < n; i++ {
			k := i
			if reverse {
				k = n - 1 - i
			}
			q := model.NewQuarterly(2000, 1).Shift(int64(k % periods))
			rows = append(rows, []model.Value{model.Per(q), model.Num(float64(k))})
		}
		return literal([]string{"t", "v"}, rows...)
	}
	op := SeriesOp{Out: "O", In: "S", Op: "cumsum", TimeCol: "t", ValCol: "v"}

	series := func(reverse bool) [][]model.Value {
		env := Env{"S": mkFrame(reverse)}
		if err := runStep(op, env); err != nil {
			t.Fatal(err)
		}
		return rowsOf(env["O"])
	}
	a, b := series(false), series(true)
	if len(a) != len(b) || len(a) != periods*dups {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				t.Fatalf("row %d differs between input orders: %v vs %v", i, a[i], b[i])
			}
		}
	}
}
