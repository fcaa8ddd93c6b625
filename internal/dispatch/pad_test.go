package dispatch

import (
	"context"
	"errors"
	"strings"
	"testing"

	"exlengine/internal/determine"
	"exlengine/internal/exlerr"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/sqlgen"
	"exlengine/internal/workload"
)

const padProgram = `
cube A(t: year) measure v
cube B(t: year) measure v
S := vsum0(A, B)
D := vsub0(A, B) * 2
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

// TestPadVectorAcrossEngines validates vsum0/vsub0 on every target that
// supports them (all but SQL) against the chase.
func TestPadVectorAcrossEngines(t *testing.T) {
	f := setup(t, padProgram, padData(t))
	ref := reference(t, f)
	for _, target := range []ops.Target{ops.TargetChase, ops.TargetETL, ops.TargetFrame} {
		t.Run(string(target), func(t *testing.T) {
			subs := determine.Partition(f.graph.FullPlan(), determine.FixedAssigner(target), f.graph)
			d := &Dispatcher{}
			got, _, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range []string{"S", "D"} {
				if !got[rel].Equal(ref[rel], 1e-9) {
					t.Errorf("%s differs on %s:\n%s", rel, target,
						strings.Join(got[rel].Diff(ref[rel], 1e-9, 5), "\n"))
				}
			}
		})
	}
}

// TestPadVectorSQLUnsupported: the SQL translator refuses padded tgds, and
// the preference-based assigner therefore never routes them to SQL.
func TestPadVectorSQLUnsupported(t *testing.T) {
	f := setup(t, padProgram, padData(t))
	if _, err := sqlgen.Translate(f.mapping); !errors.Is(err, sqlgen.ErrUntranslatable) || exlerr.ClassOf(err) != exlerr.Fatal {
		t.Errorf("SQL translation of vsum0: %v, want a fatal ErrUntranslatable", err)
	}
	subs := determine.Partition(f.graph.FullPlan(), determine.AssignByPreference, f.graph)
	for _, s := range subs {
		if s.Target == ops.TargetSQL {
			t.Errorf("pad statements routed to SQL: %+v", subs)
		}
	}
	// The preference-based run still succeeds end to end.
	d := &Dispatcher{}
	ref := reference(t, f)
	got, _, err := d.RunContext(context.Background(), subs, f.tgds, f.schemas, f.data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got["S"].Equal(ref["S"], 1e-9) {
		t.Error("preference-routed pad program differs from chase")
	}
}
