package etl

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"exlengine/internal/chase"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/workload"
)

func compile(t *testing.T, src string) *mapping.Mapping {
	t.Helper()
	prog, err := exl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFigure1FlowShape reproduces the paper's Figure 1: the flow generated
// for tgd (2) has two data source steps, a merge step joining them on the
// dimensions, a calculation step and an output step.
func TestFigure1FlowShape(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	job, err := Translate(m, "gdp")
	if err != nil {
		t.Fatal(err)
	}
	var flow *Flow
	for _, f := range job.Flows {
		if f.Target == "RGDP" {
			flow = f
		}
	}
	if flow == nil {
		t.Fatal("no flow for RGDP")
	}

	var inputs, merges, calcs, outputs int
	for _, s := range flow.Steps {
		switch s.Type {
		case TableInput:
			inputs++
		case MergeJoin:
			merges++
			if len(s.Keys) != 2 {
				t.Errorf("merge keys = %v, want the two shared dimensions", s.Keys)
			}
		case Calculator:
			calcs++
		case TableOutput:
			outputs++
		}
	}
	if inputs != 2 || merges != 1 || calcs != 1 || outputs != 1 {
		t.Errorf("flow shape = %d inputs, %d merges, %d calcs, %d outputs:\n%s",
			inputs, merges, calcs, outputs, job.Summary())
	}
	// The hops wire input -> merge -> calc -> out.
	if len(flow.Hops) != 4 {
		t.Errorf("hops = %v", flow.Hops)
	}
	if got := flow.Inputs("merge1"); len(got) != 2 {
		t.Errorf("merge inputs = %v", got)
	}
}

func TestJobSummaryAndMetadata(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	job, err := Translate(m, "gdp")
	if err != nil {
		t.Fatal(err)
	}
	sum := job.Summary()
	for _, frag := range []string{
		"table_input(RGDPPC), table_input(PQR) | merge_join | calculator | table_output(RGDP)",
		"series_calc(stl_t)",
		"aggregator(sum)",
		"aggregator(avg)",
	} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary missing %q:\n%s", frag, sum)
		}
	}

	// The metadata export is valid JSON carrying the full flow structure.
	raw, err := job.MarshalMetadata()
	if err != nil {
		t.Fatal(err)
	}
	var back Job
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Flows) != 5 {
		t.Errorf("metadata flows = %d", len(back.Flows))
	}
	if back.Flows[1].Steps[0].Type != TableInput {
		t.Errorf("metadata step type = %v", back.Flows[1].Steps[0].Type)
	}
}

// TestETLMatchesChase validates the ETL target against the chase on all
// three example programs (black boxes run as user-defined steps).
func TestETLMatchesChase(t *testing.T) {
	cases := []struct {
		name string
		prog string
		data workload.Data
	}{
		{"gdp", workload.GDPProgram, workload.GDPSource(workload.GDPConfig{Days: 400, Regions: 4})},
		{"inflation", workload.InflationProgram, workload.InflationSource(6, 30, 2)},
		{"supervision", workload.SupervisionProgram, workload.SupervisionSource(8, 16, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := compile(t, tc.prog)
			ref, err := chase.New(m).Solve(chase.Instance(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			job, err := Translate(m, tc.name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunContext(context.Background(), job, m, tc.data, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range m.Derived {
				if !got[rel].Equal(ref[rel], 1e-6) {
					t.Errorf("%s differs between ETL and chase:\n%s",
						rel, strings.Join(got[rel].Diff(ref[rel], 1e-6, 5), "\n"))
				}
			}
		})
	}
}

func TestETLShiftFoldedIntoInput(t *testing.T) {
	// The fused PCHNG tgd reads GDPT twice; the shifted atom's input step
	// carries the key shift in its metadata.
	m := compile(t, workload.GDPProgram)
	job, err := Translate(m, "gdp")
	if err != nil {
		t.Fatal(err)
	}
	var flow *Flow
	for _, f := range job.Flows {
		if f.Target == "PCHNG" {
			flow = f
		}
	}
	shifted := false
	for _, s := range flow.Steps {
		if s.Type != TableInput {
			continue
		}
		for _, sh := range s.Shifts {
			if sh != 0 {
				shifted = true
			}
		}
	}
	if !shifted {
		t.Errorf("PCHNG flow lost the q-1 key shift:\n%s", job.Summary())
	}
}

func TestETLEmptySource(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	job, err := Translate(m, "gdp")
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), job, m, workload.Data{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range m.Derived {
		if got[rel].Len() != 0 {
			t.Errorf("%s should be empty", rel)
		}
	}
}

func TestETLUndefinedPoints(t *testing.T) {
	m := compile(t, `
cube A(t: year) measure v
B := 1 / A
`)
	c := model.NewCube(model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
	_ = c.Put([]model.Value{model.Per(model.NewAnnual(2000))}, 2)
	_ = c.Put([]model.Value{model.Per(model.NewAnnual(2001))}, 0)
	job, err := Translate(m, "t")
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), job, m, workload.Data{"A": c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got["B"].Len() != 1 {
		t.Errorf("B len = %d, want 1 (zero row dropped)", got["B"].Len())
	}
}
