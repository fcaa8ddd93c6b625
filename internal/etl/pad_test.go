package etl

import (
	"context"
	"strings"
	"testing"

	"exlengine/internal/chase"
	"exlengine/internal/model"
	"exlengine/internal/workload"
)

const padProgram = `
cube A(t: year) measure v
cube B(t: year) measure v
S := vsum0(A, B)
`

func padData(t *testing.T) workload.Data {
	t.Helper()
	mk := func(name string, from, to int, base float64) *model.Cube {
		c := model.NewCube(model.NewSchema(name, []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
		for y := from; y <= to; y++ {
			if err := c.Put([]model.Value{model.Per(model.NewAnnual(y))}, base+float64(y-from)); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	return workload.Data{"A": mk("A", 2000, 2004, 10), "B": mk("B", 2002, 2006, 100)}
}

func TestPadJoinFlowShape(t *testing.T) {
	m := compile(t, padProgram)
	job, err := Translate(m, "pad")
	if err != nil {
		t.Fatal(err)
	}
	sum := job.Summary()
	if !strings.Contains(sum, "pad_join(add)") {
		t.Errorf("summary missing pad_join:\n%s", sum)
	}
	flow := job.Flows[0]
	var pj *Step
	for i := range flow.Steps {
		if flow.Steps[i].Type == PadJoin {
			pj = &flow.Steps[i]
		}
	}
	if pj == nil {
		t.Fatal("no pad_join step")
	}
	if pj.Op != "add" || pj.Default != 0 || len(pj.Keys) != 1 {
		t.Errorf("pad step = %+v", pj)
	}
	// Metadata round trip.
	raw, err := job.MarshalMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"pad_join"`) {
		t.Errorf("metadata missing pad_join:\n%s", raw)
	}
}

func TestPadJoinRun(t *testing.T) {
	m := compile(t, padProgram)
	data := padData(t)
	ref, err := chase.New(m).Solve(chase.Instance(data))
	if err != nil {
		t.Fatal(err)
	}
	job, err := Translate(m, "pad")
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), job, m, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got["S"].Equal(ref["S"], 1e-9) {
		t.Errorf("ETL pad join differs from chase:\n%s",
			strings.Join(got["S"].Diff(ref["S"], 1e-9, 7), "\n"))
	}
	if got["S"].Len() != 7 {
		t.Errorf("S len = %d, want union support 7", got["S"].Len())
	}
}

func TestPadJoinEmptySides(t *testing.T) {
	m := compile(t, padProgram)
	data := padData(t)
	delete(data, "B") // missing -> empty cube
	job, err := Translate(m, "pad")
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), job, m, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	// S = A + 0 everywhere.
	if got["S"].Len() != 5 {
		t.Errorf("S len = %d", got["S"].Len())
	}
	if v, _ := got["S"].Get([]model.Value{model.Per(model.NewAnnual(2000))}); v != 10 {
		t.Errorf("S(2000) = %v", v)
	}
}
