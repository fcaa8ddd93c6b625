package etl

import (
	"context"
	"strings"
	"testing"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
)

// TestETLConstantFilterInput exercises the TableInput filter metadata
// generated from constant lhs dimension terms.
func TestETLConstantFilterInput(t *testing.T) {
	north := model.Str("north")
	schemas := map[string]model.Schema{
		"A": model.NewSchema("A",
			[]model.Dim{{Name: "t", Type: model.TYear}, {Name: "r", Type: model.TString}}, "v"),
		"B": model.NewSchema("B", []model.Dim{{Name: "t", Type: model.TYear}}, "v"),
	}
	tgd := &mapping.Tgd{
		ID:   "sel",
		Kind: mapping.TupleLevel,
		Lhs: []mapping.Atom{{Rel: "A",
			Dims: []mapping.DimTerm{mapping.V("t"), {Const: &north}}, MVar: "v"}},
		Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("t")}},
		Measure: mapping.MV("v"),
	}
	flow, err := TranslateTgd(tgd, schemas)
	if err != nil {
		t.Fatal(err)
	}
	in := flow.Step("in1")
	if in == nil || in.FilterField != "r" || in.FilterValue != "north" {
		t.Fatalf("input step = %+v", in)
	}

	a := model.NewCube(schemas["A"])
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2000)), model.Str("north")}, 1)
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2000)), model.Str("south")}, 2)
	m := &mapping.Mapping{Schemas: schemas, Elementary: []string{"A"}, Tgds: []*mapping.Tgd{tgd}}
	job := &Job{Name: "t", Flows: []*Flow{flow}}
	out, err := RunContext(context.Background(), job, m, map[string]*model.Cube{"A": a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["B"].Len() != 1 {
		t.Errorf("B len = %d", out["B"].Len())
	}
	if got, _ := out["B"].Get([]model.Value{model.Per(model.NewAnnual(2000))}); got != 1 {
		t.Errorf("B(2000) = %v", got)
	}
}

// TestETLEgdViolationSurfaces: an output cube violating functionality (a
// hand-built projection without aggregation) fails the flow.
func TestETLEgdViolation(t *testing.T) {
	schemas := map[string]model.Schema{
		"A": model.NewSchema("A",
			[]model.Dim{{Name: "t", Type: model.TYear}, {Name: "r", Type: model.TString}}, "v"),
		"B": model.NewSchema("B", []model.Dim{{Name: "t", Type: model.TYear}}, "v"),
	}
	tgd := &mapping.Tgd{
		ID:   "proj",
		Kind: mapping.TupleLevel,
		Lhs: []mapping.Atom{{Rel: "A",
			Dims: []mapping.DimTerm{mapping.V("t"), mapping.V("r")}, MVar: "v"}},
		Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("t")}},
		Measure: mapping.MV("v"),
	}
	flow, err := TranslateTgd(tgd, schemas)
	if err != nil {
		t.Fatal(err)
	}
	a := model.NewCube(schemas["A"])
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2000)), model.Str("x")}, 1)
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2000)), model.Str("y")}, 2)
	m := &mapping.Mapping{Schemas: schemas, Elementary: []string{"A"}, Tgds: []*mapping.Tgd{tgd}}
	_, err = RunContext(context.Background(), &Job{Name: "t", Flows: []*Flow{flow}}, m, map[string]*model.Cube{"A": a}, nil)
	if err == nil || !strings.Contains(err.Error(), "functional dependency") {
		t.Fatalf("want egd violation, got %v", err)
	}
}

// TestETLMultiConsumerRejected: the runtime only supports tree-shaped
// flows; a hand-built flow with two consumers of one step is rejected.
func TestETLMultiConsumerRejected(t *testing.T) {
	schemas := map[string]model.Schema{
		"A": model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TYear}}, "v"),
		"B": model.NewSchema("B", []model.Dim{{Name: "t", Type: model.TYear}}, "v"),
	}
	flow := &Flow{
		TgdID:  "x",
		Target: "B",
		Steps: []Step{
			{Name: "in", Type: TableInput, Table: "A", Fields: []string{"t", "v"}, As: []string{"t", "v"}, Shifts: []int64{0, 0}},
			{Name: "c1", Type: Calculator},
			{Name: "c2", Type: Calculator},
			{Name: "out", Type: TableOutput, Table: "B", Fields: []string{"t", "v"}},
		},
		Hops: []Hop{{From: "in", To: "c1"}, {From: "in", To: "c2"}, {From: "c1", To: "out"}},
	}
	m := &mapping.Mapping{Schemas: schemas, Elementary: []string{"A"}}
	_, err := RunContext(context.Background(), &Job{Flows: []*Flow{flow}}, m, map[string]*model.Cube{"A": model.NewCube(schemas["A"])}, nil)
	if err == nil || !strings.Contains(err.Error(), "more than one consumer") {
		t.Fatalf("want multi-consumer error, got %v", err)
	}
}

// TestETLNoOutputStep: a flow without an output step is rejected.
func TestETLNoOutputStep(t *testing.T) {
	schemas := map[string]model.Schema{
		"A": model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TYear}}, "v"),
	}
	flow := &Flow{
		TgdID: "x", Target: "B",
		Steps: []Step{{Name: "in", Type: TableInput, Table: "A",
			Fields: []string{"t", "v"}, As: []string{"t", "v"}, Shifts: []int64{0, 0}}},
	}
	m := &mapping.Mapping{Schemas: schemas, Elementary: []string{"A"}}
	// A non-empty cube: the malformed flow must fail cleanly rather than
	// deadlock writing to a missing channel.
	a := model.NewCube(schemas["A"])
	_ = a.Put([]model.Value{model.Per(model.NewAnnual(2000))}, 1)
	_, err := RunContext(context.Background(), &Job{Flows: []*Flow{flow}}, m, map[string]*model.Cube{"A": a}, nil)
	if err == nil || !strings.Contains(err.Error(), "no consumer") {
		t.Fatalf("want no-consumer error, got %v", err)
	}
}

// TestFlowStepHelpers covers the metadata accessors.
func TestFlowStepHelpers(t *testing.T) {
	f := &Flow{Steps: []Step{{Name: "a"}, {Name: "b"}}, Hops: []Hop{{From: "a", To: "b"}}}
	if f.Step("a") == nil || f.Step("zz") != nil {
		t.Error("Step lookup")
	}
	if got := f.Inputs("b"); len(got) != 1 || got[0] != "a" {
		t.Errorf("Inputs = %v", got)
	}
}
