package crosscheck

import (
	"testing"

	"exlengine/internal/model"
)

// TestNullSemanticsAcrossEngines pins down how undefined points flow
// through every target engine. The program divides by a series that is
// zero at some periods, so D1 has holes exactly there; cubes derived from
// D1 inherit the holes. On the SQL target those holes are NULLs moving
// through predicates, which makes this a cross-engine regression test for
// the three-valued logic fix: all targets must agree with the chase on
// which tuples exist at all.
func TestNullSemanticsAcrossEngines(t *testing.T) {
	const src = `
cube A(t: quarter) measure v
cube B(t: quarter) measure v
D1 := A / B
D2 := D1 + A
D3 := D1 - B
D4 := sum(D1)
D5 := D1 * B
D6 := abs(D1)
`
	schemaA := model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TQuarter}}, "v")
	schemaB := model.NewSchema("B", []model.Dim{{Name: "t", Type: model.TQuarter}}, "v")
	a := model.NewCube(schemaA)
	bb := model.NewCube(schemaB)
	for i := 0; i < 8; i++ {
		q := model.NewQuarterly(2000, 1).Shift(int64(i))
		if err := a.Put([]model.Value{model.Per(q)}, float64(i+1)); err != nil {
			t.Fatal(err)
		}
		// B is zero on every other quarter: A/B is undefined there.
		if err := bb.Put([]model.Value{model.Per(q)}, float64(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	data := map[string]*model.Cube{"A": a, "B": bb}

	ref := agreeWithChase(t, compile(t, src), data, 1e-9, src)
	// The holes are real: D1 keeps only the odd quarters.
	if got := ref["D1"].Len(); got != 4 {
		t.Fatalf("chase D1 has %d points, want 4 (B=0 rows undefined)", got)
	}
}
