package etl

import (
	"context"
	"slices"
	"testing"

	"exlengine/internal/model"
)

// runCumsum pushes the rows through a SeriesCalc step in batches and
// collects its output stream.
func runCumsum(t *testing.T, rows []Row) []Row {
	t.Helper()
	f := &Flow{
		Steps: []Step{
			{Name: "in", Type: TableInput, As: []string{"t", "v"}},
			{Name: "series", Type: SeriesCalc, Op: "cumsum", TimeField: "t", ValueField: "v"},
		},
		Hops: []Hop{{From: "in", To: "series"}},
	}
	cols := map[string][]string{"in": {"t", "v"}}
	n := len(rows)/batchSize + 1
	in := make(chan []Row, n)
	out := make(chan []Row, n)
	chans := map[string]chan []Row{"in": in, "series": out}
	for lo := 0; lo < len(rows); lo += batchSize {
		in <- slices.Clone(rows[lo:min(lo+batchSize, len(rows))])
	}
	close(in)
	if err := runStep(context.Background(), f, f.Step("series"), cols, chans, make(batches, n), nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	var got []Row
	for batch := range out {
		got = append(got, batch...)
	}
	return got
}

// TestSeriesCalcDuplicatePeriodsDeterministic is the regression test for
// the unstable series sort: with duplicate periods in the stream (e.g. a
// panel projected down to its time dimension), the pre-fix sort ordered
// equal periods by input position, so upstream row order leaked into
// cumsum's running totals. The tie-break on value must make the output
// independent of input permutation.
func TestSeriesCalcDuplicatePeriodsDeterministic(t *testing.T) {
	const periods, dups = 8, 8
	var fwd, rev []Row
	for i := 0; i < periods*dups; i++ {
		q := model.NewQuarterly(2000, 1).Shift(int64(i % periods))
		fwd = append(fwd, Row{model.Per(q), model.Num(float64(i))})
	}
	for i := len(fwd) - 1; i >= 0; i-- {
		rev = append(rev, fwd[i])
	}

	a := runCumsum(t, fwd)
	b := runCumsum(t, rev)
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
