package frame

import (
	"context"
	"strings"
	"testing"

	"exlengine/internal/chase"
	"exlengine/internal/model"
)

func TestPadMergeStep(t *testing.T) {
	env := Env{
		"X": literal([]string{"t", "x"},
			[]model.Value{model.Int(1), model.Num(10)},
			[]model.Value{model.Int(2), model.Num(20)},
		),
		"Y": literal([]string{"t", "y"},
			[]model.Value{model.Int(2), model.Num(200)},
			[]model.Value{model.Int(3), model.Num(300)},
		),
	}
	err := runStep(PadMerge{Out: "Z", X: "X", Y: "Y", Keys: []string{"t"},
		XVal: "x", YVal: "y", Op: "add", Default: 0, OutCol: "v"}, env)
	if err != nil {
		t.Fatal(err)
	}
	z := sortedRows(env["Z"])
	if len(z) != 3 {
		t.Fatalf("rows = %d", len(z))
	}
	want := map[string]float64{"1": 10, "2": 220, "3": 300}
	for _, row := range z {
		if v, _ := row[1].AsNumber(); v != want[row[0].String()] {
			t.Errorf("Z(%s) = %v, want %v", row[0], v, want[row[0].String()])
		}
	}
}

func TestPadMergeErrors(t *testing.T) {
	env := Env{
		"X": literal([]string{"t", "x"}),
		"Y": literal([]string{"t", "y"}),
	}
	bad := []PadMerge{
		{Out: "Z", X: "X", Y: "Y", Keys: []string{"zz"}, XVal: "x", YVal: "y", Op: "add", OutCol: "v"},
		{Out: "Z", X: "X", Y: "Y", Keys: []string{"t"}, XVal: "zz", YVal: "y", Op: "add", OutCol: "v"},
		{Out: "Z", X: "X", Y: "Y", Keys: []string{"t"}, XVal: "x", YVal: "zz", Op: "add", OutCol: "v"},
		{Out: "Z", X: "X", Y: "Y", Keys: []string{"t"}, XVal: "x", YVal: "y", Op: "nosuch", OutCol: "v"},
		{Out: "Z", X: "X", Y: "Y", Keys: []string{"t"}, XVal: "x", YVal: "y", Op: "neg", OutCol: "v"},
		{Out: "Z", X: "NOPE", Y: "Y", Keys: []string{"t"}, XVal: "x", YVal: "y", Op: "add", OutCol: "v"},
	}
	for i, s := range bad {
		if err := runStep(s, env); err == nil {
			t.Errorf("pad case %d: want error", i)
		}
	}
}

func TestFramePadMatchesChase(t *testing.T) {
	m := compile(t, `
cube A(t: year) measure v
cube B(t: year) measure v
S := vsum0(A, B)
D := vsub0(B, A)
`)
	a := yearCube(t, "A", map[int]float64{2000: 1, 2001: 2})
	b := yearCube(t, "B", map[int]float64{2001: 10, 2002: 20})
	data := map[string]*model.Cube{"A": a, "B": b}

	ref, err := chase.New(m).Solve(chase.Instance(data))
	if err != nil {
		t.Fatal(err)
	}
	script, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteContext(context.Background(), script, m, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"S", "D"} {
		if !got[rel].Equal(ref[rel], 1e-9) {
			t.Errorf("%s differs:\n%s", rel, strings.Join(got[rel].Diff(ref[rel], 1e-9, 5), "\n"))
		}
	}
	if got["S"].Len() != 3 {
		t.Errorf("S len = %d", got["S"].Len())
	}
}
