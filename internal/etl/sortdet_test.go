package etl

import (
	"context"
	"fmt"
	"testing"

	"exlengine/internal/frame"
	"exlengine/internal/model"
)

// runCumsum pushes the (period, number) rows of p, a panel P(t, r) read by a
// table input that keeps t and the measure, through a SeriesCalc step in
// batches and collects its output stream.
func runCumsum(t *testing.T, p *model.Cube) [][]model.Value {
	t.Helper()
	f := &Flow{
		Steps: []Step{
			{Name: "in", Type: TableInput, Table: "P", Fields: []string{"t", "v"}, As: []string{"t", "v"}},
			{Name: "series", Type: SeriesCalc, Op: "cumsum", TimeField: "t", ValueField: "v"},
		},
		Hops: []Hop{{From: "in", To: "series"}},
	}
	store := map[string]*model.Cube{"P": p}
	streams := map[string]*frame.Layout{}
	bodies := make([]any, len(f.Steps))
	for i := range f.Steps {
		var err error
		if bodies[i], streams[f.Steps[i].Name], err = bodyOf(f, &f.Steps[i], streams, store, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	n := p.Len()/batchSize + 1
	in, out := make(chan *frame.Batch, n), make(chan *frame.Batch, n)
	chans := map[string]chan *frame.Batch{"in": in, "series": out}
	for i := range f.Steps {
		if err := runStep(context.Background(), f, &f.Steps[i], bodies[i], streams, chans, make(batches, n), store, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := streams["series"]
	var got [][]model.Value
	for b := range out {
		for i := range b.N {
			got = append(got, []model.Value{s.Value(b, i, 0), s.Value(b, i, 1)})
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
	// panel holds, at each period, the values of that period in ascending
	// order of its regions, or in descending order when rev is set.
	panel := func(rev bool) *model.Cube {
		c := model.NewCube(model.NewSchema("P", []model.Dim{{Name: "t", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "v"))
		for k := 0; k < periods*dups; k++ {
			d := k / periods
			if rev {
				d = dups - 1 - d
			}
			q := model.NewQuarterly(2000, 1).Shift(int64(k % periods))
			if err := c.Put([]model.Value{model.Per(q), model.Str(fmt.Sprint("r", d))}, float64(k)); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}

	a := runCumsum(t, panel(false))
	b := runCumsum(t, panel(true))
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
