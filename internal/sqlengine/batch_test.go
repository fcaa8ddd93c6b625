package sqlengine

import (
	"testing"

	"exlengine/internal/model"
)

func TestRoundTripRows(t *testing.T) {
	rows := [][]model.Value{
		{model.Str("a"), model.Num(1)},
		{model.Str("b"), model.Num(2)},
		{model.Str("c"), model.Num(3)},
	}
	b := &batch{Cols: make([]vec, 2)}
	for _, row := range rows {
		b.AppendRow(row)
	}
	if b.N != 3 || len(b.Cols) != 2 {
		t.Fatalf("batch shape = %d x %d", b.N, len(b.Cols))
	}
	var buf []model.Value
	for i := range rows {
		buf = b.Row(i, buf)
		for j := range rows[i] {
			if !rows[i][j].Equal(buf[j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, rows[i][j], buf[j])
			}
		}
	}
}
