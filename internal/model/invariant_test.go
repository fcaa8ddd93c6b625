package model_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"exlengine/internal/backend"
	"exlengine/internal/chase"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/store"
	"exlengine/internal/store/durable"
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

// TestFrozenIsColumnsAndNothingElse: frozen ⇔ columns, over every producer of
// a version: a frozen cube holds its columns and no edits, a mutable one its
// edits over a version.
func TestFrozenIsColumnsAndNothingElse(t *testing.T) {
	check := func(what string, c *model.Cube, err error) *model.Cube {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !c.Frozen() || !model.OnlyColumns(c) {
			t.Errorf("%s: frozen %v, columns and nothing else %v", what, c.Frozen(), model.OnlyColumns(c))
		}
		return c
	}
	quarter := func(i int) model.Value { return model.Per(model.NewQuarterly(2000, 1).Shift(int64(i))) }
	sSchema := model.NewSchema("S", []model.Dim{{Name: "t", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "v")
	gSchema := model.NewSchema("G", []model.Dim{{Name: "t", Type: model.TQuarter}}, "v")
	s, g := model.NewCube(sSchema), model.NewCube(gSchema)
	for i := 0; i < 8; i++ {
		_ = g.Put([]model.Value{quarter(i)}, float64(i+1))
		for _, r := range []string{"a", "b", "c"} {
			_ = s.Put([]model.Value{quarter(i), model.Str(r)}, float64(10*i)+float64(r[0]-'a'))
		}
	}
	if s.Frozen() || model.OnlyColumns(s) {
		t.Fatal("a new cube is frozen, or holds no edits")
	}

	// model: the builder on both paths, Freeze, Snapshot, Revise from either
	// kind of put, Apply's arms, Restate and Apply over its patch, Derive's.
	in, out := model.NewBuilder(gSchema), model.NewBuilder(gSchema)
	for i := 0; i < 8; i++ {
		_ = in.Add([]model.Value{quarter(i)}, 1)
		_ = out.Add([]model.Value{quarter(7 - i)}, 1)
	}
	c, err := in.Build()
	check("Builder in order", c, err)
	c, err = out.Build()
	check("Builder out of order", c, err)
	followed, left := model.NewBuilderOn(c, gSchema), model.NewBuilderOn(c, gSchema)
	for i := 0; i < 8; i++ {
		_ = followed.Add([]model.Value{quarter(i)}, 2)
		_ = left.Add([]model.Value{quarter(i + i/4)}, 2)
	}
	c, err = followed.Build()
	check("Builder that follows its predecessor", c, err)
	c, err = left.Build()
	check("Builder that leaves its predecessor halfway", c, err)
	check("Freeze", s.Clone().Freeze(), nil)
	base := check("Snapshot", s.Snapshot(), nil)
	if s.Frozen() || model.OnlyColumns(s) {
		t.Error("Snapshot froze its cube")
	}
	rev := s.Clone()
	_ = rev.Replace([]model.Value{quarter(2), model.Str("b")}, -1)
	check("Revise of a mutable put", base.Revise(rev).Current, nil)
	frozen := model.NewCube(sSchema) // a key set of its own, which Revise merges with base's
	_ = rev.ForEach(func(tu model.Tuple) error { return frozen.Put(tu.Dims, tu.Measure) })
	check("Revise of a frozen put", base.Revise(frozen.Freeze()).Current, nil)
	grown := rev.Clone()
	_ = grown.Put([]model.Value{quarter(9), model.Str("a")}, 5)
	check("Revise of a frozen put that inserts", base.Revise(grown.Freeze()).Current, nil)
	one := []model.Tuple{{Dims: []model.Value{quarter(3), model.Str("a")}, Measure: 7}}
	added := []model.Tuple{{Dims: []model.Value{quarter(8), model.Str("a")}, Measure: 7}}
	c, err = base.Apply(nil, one, nil)
	check("Apply, changed", c, err)
	c, err = s.Apply(added, nil, nil)
	check("Apply to a mutable cube, added", c, err)
	c, err = base.Apply(added, nil, one)
	check("Apply, added and deleted", c, err)
	patched, err := base.Restate([]int{2, 5}, []float64{-3, -4})
	check("Restate", patched, err)
	c, err = patched.Apply(nil, one, nil)
	check("Apply, changed, over a patch", c, err)
	c, err = patched.Apply(added, nil, nil)
	check("Apply, added, over a patch", c, err)
	c, err = base.Derive(sSchema, func(int, model.Tuple) (float64, bool, error) { return 1, true, nil })
	check("Derive, every tuple kept", c, err)
	c, err = s.Derive(sSchema, func(i int, _ model.Tuple) (float64, bool, error) { return 1, i%2 == 0, nil })
	check("Derive from a mutable cube, some dropped", c, err)
	check("DiffCubes' empty side", model.DiffCubes("S", nil, base).Base, nil)

	// store: CSV, the stored version, the durable codec through a reopen.
	var buf bytes.Buffer
	if err := store.WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	c, err = store.ReadCSV(bytes.NewReader(body), sSchema)
	check("ReadCSV", c, err)
	c, err = store.ReadCSVOn(c, bytes.NewReader(body), sSchema)
	check("ReadCSVOn its predecessor", c, err)
	dir := t.TempDir()
	st, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k, put := range []*model.Cube{s, rev, grown.Clone()} {
		if err := st.Put(put, time.Unix(int64(k), 0)); err != nil {
			t.Fatal(err)
		}
		stored, _ := st.Get("S")
		check("stored version", stored, nil)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = durable.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, at := range st.Versions("S") {
		v, _ := st.GetAsOf("S", at)
		check("recovered version", v, nil)
	}

	// Every backend's results, and every kind of tgd on the chase.
	src := map[string]*model.Cube{"S": s, "G": g}
	m := compile(t, `
cube S(t: quarter, r: string) measure v
cube G(t: quarter) measure v
A := S * 2
B := S + G
L := shift(G, 1)
T := sum(S, group by t)
N := count(S)
C := cumsum(G)
`)
	for _, target := range ops.AllTargets {
		res, err := backend.Run(context.Background(), target, m, src, nil)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		for _, rel := range m.Derived {
			check(string(target)+" "+rel, res[rel], nil)
		}
	}
	padded, err := chase.New(compile(t, `
cube G(t: quarter) measure v
L := shift(G, 2)
P := vsum0(G, L)
`)).Solve(chase.Instance{"G": g})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range padded {
		check("chase, padded: "+name, c, nil)
	}

	// The chase's maintained outputs, after a revision of S that restates one
	// measure: by row on the column path, per key elsewhere.
	solver := chase.New(m)
	prev, err := solver.Solve(chase.Instance{"S": base, "G": g})
	if err != nil {
		t.Fatal(err)
	}
	d := base.Revise(rev)
	maintained, _, err := solver.Maintain(context.Background(), chase.Instance{"S": d.Current, "G": g},
		&chase.Front{Deltas: map[string]*model.CubeDelta{"S": d}, Bases: prev})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range maintained {
		check("chase, maintained: "+name, c, nil)
	}
}
