package colbatch

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
	b := FromRows(rows, 2)
	if b.N != 3 || b.NumCols() != 2 {
		t.Fatalf("batch shape = %d x %d", b.N, b.NumCols())
	}
	back := b.Rows()
	for i := range rows {
		for j := range rows[i] {
			if !rows[i][j].Equal(back[i][j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, rows[i][j], back[i][j])
			}
		}
	}
}

func TestProjectSharesColumns(t *testing.T) {
	b := New(3)
	for i := 0; i < 10; i++ {
		b.AppendRow([]model.Value{model.Int(int64(i)), model.Num(float64(i)), model.Str("x")})
	}
	p := b.Project([]int{2, 0})
	if p.NumCols() != 2 || p.N != 10 {
		t.Fatalf("project shape = %d x %d", p.N, p.NumCols())
	}
	if &p.Cols[1][0] != &b.Cols[0][0] {
		t.Fatal("Project copied the column instead of re-slicing")
	}
}

func TestCubeRoundTrip(t *testing.T) {
	sch := model.NewSchema("S",
		[]model.Dim{{Name: "t", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "v")
	c := model.NewCube(sch)
	q := model.NewQuarterly(2001, 1)
	for i := 0; i < 4; i++ {
		if err := c.Put([]model.Value{model.Per(q.Shift(int64(i))), model.Str("n")}, float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	b := New(3)
	for _, tu := range c.Tuples() {
		b.AppendRow(append(tu.Dims[:2:2], model.Num(tu.Measure)))
	}
	if b.N != 4 || b.NumCols() != 3 {
		t.Fatalf("batch shape = %d x %d", b.N, b.NumCols())
	}
	back, err := ToCube(b, sch)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(back, 0) {
		t.Fatalf("round trip lost tuples:\n%v", c.Diff(back, 0, 8))
	}

	// The same rows a batch at a time through one batch that is refilled:
	// AppendToCube keeps nothing of a batch it has read.
	piece, parts := New(3), model.NewCube(sch)
	for i := 0; i < b.N; i++ {
		for j := range piece.Cols {
			piece.Cols[j] = append(piece.Cols[j][:0], b.Cols[j][i])
		}
		piece.N = 1
		if err := AppendToCube(parts, piece); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Equal(parts, 0) {
		t.Fatalf("batch by batch lost tuples:\n%v", c.Diff(parts, 0, 8))
	}
	if err := AppendToCube(parts, New(2)); err == nil {
		t.Error("AppendToCube took a batch of another width")
	}
}

func TestToCubeDropsNullRows(t *testing.T) {
	sch := model.NewSchema("S", []model.Dim{{Name: "k", Type: model.TString}}, "v")
	b := New(2)
	b.AppendRow([]model.Value{model.Str("a"), model.Num(1)})
	b.AppendRow([]model.Value{model.Str("b"), model.Value{}}) // NULL measure
	b.AppendRow([]model.Value{model.Value{}, model.Num(3)})   // NULL dim
	c, err := ToCube(b, sch)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cube has %d tuples, want 1 (NULL rows dropped)", c.Len())
	}
}

func TestZeroColumnBatchKeepsRowCount(t *testing.T) {
	b := FromRows([][]model.Value{{model.Num(1)}, {model.Num(2)}}, 1)
	p := b.Project(nil)
	if p.N != 2 || p.NumCols() != 0 {
		t.Fatalf("projected-away batch shape = %d x %d, want 2 x 0", p.N, p.NumCols())
	}
}
