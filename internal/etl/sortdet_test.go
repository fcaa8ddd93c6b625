package etl

import (
	"context"
	"testing"

	"exlengine/internal/model"
)

// runCumsum pushes the (period, number) rows through a SeriesCalc step in
// batches and collects its output stream.
func runCumsum(t *testing.T, rows [][]model.Value) [][]model.Value {
	t.Helper()
	f := &Flow{
		Steps: []Step{
			{Name: "in", Type: TableInput, As: []string{"t", "v"}},
			{Name: "series", Type: SeriesCalc, Op: "cumsum", TimeField: "t", ValueField: "v"},
		},
		Hops: []Hop{{From: "in", To: "series"}},
	}
	s := kernelStream([]string{"t", "v"})
	streams := map[string]*stream{"in": s, "series": s}
	n := len(rows)/batchSize + 1
	in := make(chan *batch, n)
	out := make(chan *batch, n)
	chans := map[string]chan *batch{"in": in, "series": out}
	for lo := 0; lo < len(rows); lo += batchSize {
		b := &batch{}
		for _, r := range rows[lo:min(lo+batchSize, len(rows))] {
			x, _ := r[1].AsNumber()
			b.vals, b.nums, b.n = append(b.vals, r[0]), append(b.nums, x), b.n+1
		}
		in <- b
	}
	close(in)
	if err := runStep(context.Background(), f, f.Step("series"), streams, chans, make(batches, n), nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	var got [][]model.Value
	for b := range out {
		for i := range b.n {
			row := make([]model.Value, 2)
			s.read(b, i, row, []int{0, 1})
			got = append(got, row)
		}
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
	var fwd, rev [][]model.Value
	for i := 0; i < periods*dups; i++ {
		q := model.NewQuarterly(2000, 1).Shift(int64(i % periods))
		fwd = append(fwd, []model.Value{model.Per(q), model.Num(float64(i))})
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
