package backend

import (
	"context"
	"slices"
	"testing"

	"exlengine/internal/frame"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

// joins runs m on target under a tracer and returns how each merge found its
// matches, in the order the merges ran: the join attribute of every ETL
// merge_join step and every frame Merge, and the run's cubes.
func joins(t *testing.T, target ops.Target, m *mapping.Mapping, input map[string]*model.Cube) ([]string, map[string]*model.Cube) {
	t.Helper()
	tr := obs.NewTracer()
	out, err := Run(obs.ContextWithTracer(context.Background(), tr), target, m, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	var modes []string
	for _, root := range tr.Roots() {
		for _, s := range append(root.FindAll("etl.step"), root.FindAll("frame.op")...) {
			if typ, _ := s.Attr("type"); typ != "merge_join" {
				if op, _ := s.Attr("op"); op != "Merge" {
					continue
				}
			}
			mode, _ := s.Attr("join")
			modes = append(modes, mode)
		}
	}
	return modes, out
}

// TestMergeAlignsOrHashes pins which merges of the ETL and frame targets align
// and which hash. A merge aligns exactly where the keys are every dimension of
// a version on each side, in schema order and unshifted, and the right side
// holds every row of its version; the GDP product does, and on the chase, its
// operands on two key sets, it runs a column at a time. A join on a subset of
// the dimensions, a shifted key and an atom with a constant dimension hash,
// and every run's result is the chase's.
func TestMergeAlignsOrHashes(t *testing.T) {
	gdp := compile(t, workload.GDPProgram)
	gdpData := workload.GDPSource(workload.GDPConfig{Days: 400, Regions: 3})
	product, productData := productTgd(t)

	tr := obs.NewTracer()
	if _, err := Run(obs.ContextWithTracer(context.Background(), tr), ops.TargetChase, product, productData, nil); err != nil {
		t.Fatal(err)
	}
	if eval, _ := tr.Roots()[0].Find("chase.tgd").Attr("eval"); eval != "column" || productData["PQR"].SharesKeySet(productData["RGDPPC"]) {
		t.Errorf("the product on the chase: eval=%s, want column over two key sets", eval)
	}

	// RGDP := RGDPPC * PQR with PQR's region a constant: PQR(q, "r01").
	constant := compile(t, "cube RGDPPC(q: quarter, r: string) measure g\ncube PQR(q: quarter, r: string) measure p\nRGDP := RGDPPC * PQR\n")
	r01 := productData["PQR"].Tuples()[0].Dims[1]
	constant.Tgds[0].Lhs[1].Dims[1] = mapping.DimTerm{Const: &r01}

	a, err := productData["RGDPPC"].Derive(model.NewSchema("A", productData["RGDPPC"].Schema().Dims, "a"),
		func(_ int, tu model.Tuple) (float64, bool, error) { return tu.Measure, true, nil })
	if err != nil {
		t.Fatal(err)
	}
	subsetData := map[string]*model.Cube{"A": a, "B": model.NewCube(model.NewSchema("B", []model.Dim{{Name: "q", Type: model.TQuarter}}, "b"))}
	for i, tu := range productData["PQR"].Tuples() {
		if i%20 == 0 {
			_ = subsetData["B"].Put(tu.Dims[:1], tu.Measure)
		}
	}
	subsetData["B"].Freeze()

	for _, c := range []struct {
		name  string
		m     *mapping.Mapping
		input map[string]*model.Cube
		want  []string
	}{
		{"the product", product, productData, []string{"aligned"}},
		{"the GDP program: the product, then a shifted key", gdp, gdpData, []string{"aligned", "hash"}},
		{"a subset of the dimensions on the left",
			compile(t, "cube A(q: quarter, r: string) measure a\ncube B(q: quarter) measure b\nC := A * B\n"), subsetData, []string{"hash"}},
		{"a subset of the dimensions on the right",
			compile(t, "cube A(q: quarter, r: string) measure a\ncube B(q: quarter) measure b\nC := B * A\n"), subsetData, []string{"hash"}},
		{"an atom with a constant dimension", constant, productData, []string{"hash"}},
	} {
		want, err := Run(context.Background(), ops.TargetChase, c.m, c.input, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []ops.Target{ops.TargetETL, ops.TargetFrame} {
			modes, out := joins(t, target, c.m, c.input)
			if !slices.Equal(modes, c.want) {
				t.Errorf("%s on %s: joins %v, want %v", c.name, target, modes, c.want)
			}
			for _, name := range c.m.Derived {
				if d := sameBits(out[name], want[name]); d != "" {
					t.Errorf("%s on %s: %s differs from the chase's: %s", c.name, target, name, d)
				}
			}
		}
	}
}

// TestMergeOfAFilteredFrameHashes: a frame whose right side went through
// Filter holds some rows of its version, not all, so its merge on every
// dimension hashes, and finds exactly the rows the filter kept.
func TestMergeOfAFilteredFrameHashes(t *testing.T) {
	_, data := productTgd(t)
	r01 := data["PQR"].Tuples()[0].Dims[1]
	p := &frame.Program{TgdID: "by hand", Target: "RGDP", Result: "RGDP", Steps: []frame.Step{
		frame.Copy{Out: "Y", In: "PQR"},
		frame.Filter{Var: "Y", Col: "r", V: r01},
		frame.Merge{Out: "M", X: "RGDPPC", Y: "Y", By: []string{"q", "r"}},
		frame.MapCol{Var: "M", Col: "v", E: frame.Apply{Op: "mul", Args: []frame.Expr{frame.Col{Name: "g"}, frame.Col{Name: "p"}}}},
		frame.SelectCols{Out: "RGDP", In: "M", Cols: []string{"q", "r", "v"}},
	}}
	env := frame.Env{}
	for name, c := range data {
		env[name] = frame.FromCube(c)
	}
	tr := obs.NewTracer()
	ctx, span := obs.StartSpan(obs.ContextWithTracer(context.Background(), tr), "test")
	res, err := p.RunContext(ctx, env)
	span.End()
	if err != nil {
		t.Fatal(err)
	}
	if mode, _ := span.FindAll("frame.op")[2].Attr("join"); mode != "hash" {
		t.Errorf("the merge with a filtered frame: join=%s, want hash", mode)
	}
	got, err := res.ToCube(nil, model.NewSchema("RGDP", data["PQR"].Schema().Dims, "v"))
	if err != nil {
		t.Fatal(err)
	}
	want := model.NewCube(got.Schema())
	_ = data["RGDPPC"].Ordered(func(tu model.Tuple) error {
		if p, ok := data["PQR"].Get(tu.Dims); ok && tu.Dims[1].Equal(r01) {
			return want.Put(tu.Dims, tu.Measure*p)
		}
		return nil
	})
	if want.Len() == 0 {
		t.Fatal("the filter keeps no row")
	}
	if d := sameBits(got, want.Freeze()); d != "" {
		t.Errorf("the merge with a filtered frame: %s", d)
	}
}
