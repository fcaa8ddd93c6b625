package crosscheck

import (
	"io"
	"testing"

	"exlengine/internal/difftest"
	"exlengine/internal/model"
	"exlengine/internal/store"
)

// TestUndefinedPointSemanticsAcrossEngines pins the unified semantics
// documented in DESIGN.md: a scalar operator that is undefined at a
// point (ln/log of a non-positive value, sqrt of a negative, division
// by zero) produces NO tuple there — in every backend. The frame engine
// represents the hole as NA and drops it on materialization, the chase
// skips the binding, SQL carries a NULL that drops the row, and ETL
// skips the row in its calculator step; all four must converge on the
// same set of existing tuples, including downstream of arithmetic and
// aggregations over the holes.
func TestUndefinedPointSemanticsAcrossEngines(t *testing.T) {
	c := &difftest.Case{
		Decls: []string{"cube A(t: quarter) measure v"},
		Stmts: []string{
			"U1 := ln(A)",      // undefined for v <= 0
			"U2 := sqrt(A)",    // undefined for v < 0
			"U3 := log(2, A)",  // undefined for v <= 0
			"U4 := A / A",      // undefined at v = 0 (0/0)
			"U5 := U1 + A",     // holes propagate through arithmetic
			"U6 := U1 - U2",    // intersection of two hole patterns
			"U7 := sum(U1)",    // aggregation ignores the holes entirely
			"U8 := avg(U4)",    // aggregate over a cube with a hole at 0
			"U9 := cumsum(U2)", // black box sees only the defined points
		},
		Data: map[string]*model.Cube{},
	}
	sch := model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TQuarter}}, "v")
	a := model.NewCube(sch)
	for i, v := range []float64{-1.5, -1, 0, 0.5, 1, 2} {
		q := model.NewQuarterly(2000, 1).Shift(int64(i))
		if err := a.Put([]model.Value{model.Per(q)}, v); err != nil {
			t.Fatal(err)
		}
	}
	c.Data["A"] = a

	res, err := difftest.Run(c, 1e-9)
	if err != nil {
		t.Fatalf("case does not run: %v", err)
	}
	if res.SQLSkipped {
		t.Fatal("SQL must participate: the program has no padded operators")
	}
	for _, d := range res.Divergences {
		t.Errorf("undefined-point divergence: %s", d)
	}
}

// TestUndefinedPointCounts asserts the exact hole pattern on the chase
// reference, so the semantics cannot drift in lockstep across all four
// engines without this test noticing.
func TestUndefinedPointCounts(t *testing.T) {
	c := &difftest.Case{
		Decls: []string{"cube A(t: quarter) measure v"},
		Stmts: []string{"U1 := ln(A)", "U2 := sqrt(A)", "U4 := A / A"},
		Data:  map[string]*model.Cube{},
	}
	sch := model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TQuarter}}, "v")
	a := model.NewCube(sch)
	for i, v := range []float64{-1.5, -1, 0, 0.5, 1, 2} {
		q := model.NewQuarterly(2000, 1).Shift(int64(i))
		if err := a.Put([]model.Value{model.Per(q)}, v); err != nil {
			t.Fatal(err)
		}
	}
	c.Data["A"] = a
	res, err := difftest.Run(c, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) > 0 {
		t.Fatalf("engines diverge: %v", res.Divergences)
	}
	// difftest.Run already compared everything against the chase; solving
	// again for counts keeps this test independent of Run internals.
	_, ref := chaseRef(t, c.Source(), c.Data)
	for rel, want := range map[string]int{
		"U1": 3, // 0.5, 1, 2
		"U2": 4, // 0, 0.5, 1, 2
		"U4": 5, // all but the 0 point
	} {
		if got := ref[rel].Len(); got != want {
			t.Errorf("chase %s has %d tuples, want %d (undefined points must be absent)", rel, got, want)
		}
	}
}

// TestNonRealResultIsAnUndefinedPoint: pow and exp are undefined where their
// result is not a real number — a negative base under a fractional exponent,
// an overflow — so the point is absent on every backend, and no NaN or
// infinity reaches a cube for WriteCSV to refuse. So are the four arithmetic
// operators where their result overflows.
func TestNonRealResultIsAnUndefinedPoint(t *testing.T) {
	c := &difftest.Case{
		Decls: []string{"cube A(t: quarter) measure v", "cube B(t: quarter) measure v"},
		Stmts: []string{"R := pow(A, 0.5)", "E := exp(A)", "N := R + E", "O := B * B", "P := B / 1e-300"},
		Data:  map[string]*model.Cube{},
	}
	for name, vs := range map[string][]float64{"A": {-4, 0, 4, 1000}, "B": {1e200, -1e200, 3, 0}} {
		cube := model.NewCube(model.NewSchema(name, []model.Dim{{Name: "t", Type: model.TQuarter}}, "v"))
		for i, v := range vs {
			if err := cube.Put([]model.Value{model.Per(model.NewQuarterly(2000, 1).Shift(int64(i)))}, v); err != nil {
				t.Fatal(err)
			}
		}
		c.Data[name] = cube
	}
	res, err := difftest.Run(c, 1e-9)
	if err != nil || res.SQLSkipped {
		t.Fatalf("case does not run on all four backends: %v", err)
	}
	for _, d := range res.Divergences {
		t.Errorf("divergence: %s", d)
	}
	_, ref := chaseRef(t, c.Source(), c.Data)
	for rel, want := range map[string]int{
		"R": 3, // all but -4
		"E": 3, // all but 1000
		"N": 2, // 0 and 4
		"O": 2, // 3 and 0: (±1e200)² overflows
		"P": 2, // 3 and 0: ±1e200 / 1e-300 overflows
	} {
		if got := ref[rel].Len(); got != want {
			t.Errorf("chase %s has %d tuples, want %d", rel, got, want)
		}
		if err := store.WriteCSV(io.Discard, ref[rel]); err != nil {
			t.Errorf("WriteCSV(%s): %v", rel, err)
		}
	}
}
