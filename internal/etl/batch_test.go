package etl

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"exlengine/internal/chase"
	"exlengine/internal/frame"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/workload"
)

// sameBits describes how got differs from want — another tuple, or a measure
// with other bits — or is "" where they are equal.
func sameBits(got, want *model.Cube) string {
	var g, w []model.Tuple
	_ = got.Ordered(func(tu model.Tuple) error { g = append(g, tu); return nil })
	_ = want.Ordered(func(tu model.Tuple) error { w = append(w, tu); return nil })
	if len(g) != len(w) {
		return fmt.Sprintf("%d tuples, want %d", len(g), len(w))
	}
	for i := range g {
		if model.EncodeKey(g[i].Dims) != model.EncodeKey(w[i].Dims) || math.Float64bits(g[i].Measure) != math.Float64bits(w[i].Measure) {
			return fmt.Sprintf("tuple %d is %v %v, want %v %v", i, g[i].Dims, g[i].Measure, w[i].Dims, w[i].Measure)
		}
	}
	return ""
}

func year(y int) model.Value { return model.Per(model.NewAnnual(y)) }

// TestBatchBoundaries runs every step type over streams that end before, on
// and after a batch edge: a filtered table input, a join, a calculator that
// drops undefined points on both sides of the first edge, an aggregator, a
// series step, a pad join, and the output step behind each. Every result is
// the chase's, bit for bit.
func TestBatchBoundaries(t *testing.T) {
	m := compile(t, `
cube A(t: year) measure v
cube B(t: year) measure v
cube P(t: year, r: string) measure v
cube F(t: year, r: string) measure v
J := A * B
D := 1 / A
S := sum(P, group by t)
C := cumsum(A)
V := vsum0(A, B)
`)
	// N := F(t, "north"): a constant dimension, which EXL cannot write, so the
	// table input of its flow filters.
	north := model.Str("north")
	m.Schemas["N"] = model.NewSchema("N", []model.Dim{{Name: "t", Type: model.TYear}}, "v")
	m.Tgds = append(m.Tgds, &mapping.Tgd{
		ID: "sel", Kind: mapping.TupleLevel,
		Lhs:     []mapping.Atom{{Rel: "F", Dims: []mapping.DimTerm{mapping.V("t"), {Const: &north}}, MVar: "v"}},
		Rhs:     mapping.Atom{Rel: "N", Dims: []mapping.DimTerm{mapping.V("t")}},
		Measure: mapping.MV("v"),
	})
	m.Derived = append(m.Derived, "N")
	job, err := Translate(m, "edges")
	if err != nil {
		t.Fatal(err)
	}

	const b = batchSize
	for _, n := range []int{0, 1, b - 1, b, b + 1, 3*b + 7} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			cube := func(name string, dims ...model.Dim) *model.Cube {
				return model.NewCube(model.NewSchema(name, dims, "v"))
			}
			tdim, rdim := model.Dim{Name: "t", Type: model.TYear}, model.Dim{Name: "r", Type: model.TString}
			a, bb, p, f := cube("A", tdim), cube("B", tdim), cube("P", tdim, rdim), cube("F", tdim, rdim)
			for i := 0; i < n; i++ {
				v := 0.1 * float64(1+i%7)
				if i == b-1 || i == b {
					v = 0 // 1/A is undefined on either side of the first edge
				}
				put := func(c *model.Cube, dims []model.Value, v float64) {
					if err := c.Put(dims, v); err != nil {
						t.Fatal(err)
					}
				}
				put(a, []model.Value{year(1000 + i)}, v)
				put(bb, []model.Value{year(1000 + i)}, 1.0/3+float64(i))
				put(p, []model.Value{year(1000 + i/3), model.Str(fmt.Sprint("r", i%3))}, v*1e8+1e-8)
				put(f, []model.Value{year(1000 + i), north}, v)
				put(f, []model.Value{year(1000 + i), model.Str("south")}, -v)
			}
			data := map[string]*model.Cube{"A": a, "B": bb, "P": p, "F": f}
			ref, err := chase.New(m).Solve(chase.Instance(data))
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunContext(context.Background(), job, m, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range m.Derived {
				if d := sameBits(got[rel], ref[rel]); d != "" {
					t.Errorf("%s: %s", rel, d)
				}
			}
			zeros := min(max(n-(b-1), 0), 2) // of A's tuples b-1 and b, those there are
			if got["D"].Len() != n-zeros {
				t.Errorf("D has %d tuples, want %d", got["D"].Len(), n-zeros)
			}
		})
	}
}

// TestStreamOrderUnchanged: a join whose build side repeats every key feeds a
// sum whose bits depend on the order of its fold. The result is the fold in
// row-at-a-time order — probe rows in the left stream's order, each one's
// matches in the order the build side arrived — and not the fold with each
// probe row's matches reversed.
func TestStreamOrderUnchanged(t *testing.T) {
	tdim := model.Dim{Name: "t", Type: model.TYear}
	l := model.NewCube(model.NewSchema("L", []model.Dim{tdim, {Name: "a", Type: model.TString}}, "x"))
	r := model.NewCube(model.NewSchema("R", []model.Dim{tdim, {Name: "b", Type: model.TString}}, "y"))
	for y := 0; y < 3; y++ {
		for i := 0; i < batchSize+50; i++ {
			if err := l.Put([]model.Value{year(2000 + y), model.Str(fmt.Sprintf("a%03d", i))}, []float64{1, 3, 0.5, 7, -2}[i%5]); err != nil {
				t.Fatal(err)
			}
		}
		for i, v := range []float64{1e16, 1, -1e16, 1} {
			if err := r.Put([]model.Value{year(2000 + y), model.Str(fmt.Sprint("b", i))}, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	flow := &Flow{
		TgdID: "order", Target: "S",
		Steps: []Step{
			{Name: "in1", Type: TableInput, Table: "L", Fields: []string{"t", "a", "x"}, As: []string{"t", "a", "x"}},
			{Name: "in2", Type: TableInput, Table: "R", Fields: []string{"t", "b", "y"}, As: []string{"t", "b", "y"}},
			{Name: "merge1", Type: MergeJoin, Left: "in1", Right: "in2", Keys: []string{"t"}},
			{Name: "calc", Type: Calculator, Calcs: []Calc{
				{Field: "d1", expr: frame.Col{Name: "t"}},
				{Field: "m", expr: frame.Apply{Op: "mul", Args: []frame.Expr{frame.Col{Name: "x"}, frame.Col{Name: "y"}}}},
			}},
			{Name: "agg", Type: Aggregator, Keys: []string{"d1"}, Agg: "sum", ValueField: "m", OutField: "m"},
			{Name: "out", Type: TableOutput, Table: "S", Fields: []string{"d1", "m"}},
		},
		Hops: []Hop{{From: "in1", To: "merge1"}, {From: "in2", To: "merge1"}, {From: "merge1", To: "calc"},
			{From: "calc", To: "agg"}, {From: "agg", To: "out"}},
	}
	schemas := map[string]model.Schema{"S": model.NewSchema("S", []model.Dim{tdim}, "v")}
	got, err := runFlow(context.Background(), flow, map[string]*model.Cube{"L": l, "R": r}, schemas, nil)
	if err != nil {
		t.Fatal(err)
	}

	// fold sums x*y over the join in row-at-a-time order, each probe row's
	// matches reversed when rev is set.
	sum, _ := ops.FoldOf("sum")
	fold := func(rev bool) *model.Cube {
		accs := map[string]*ops.Acc{}
		var years []model.Value
		_ = l.Ordered(func(lt model.Tuple) error {
			var ys []float64
			_ = r.Ordered(func(rt model.Tuple) error {
				if rt.Dims[0].Equal(lt.Dims[0]) {
					ys = append(ys, rt.Measure)
				}
				return nil
			})
			k := lt.Dims[0].String()
			if accs[k] == nil {
				accs[k] = &ops.Acc{}
				years = append(years, lt.Dims[0])
			}
			for i := range ys {
				if rev {
					i = len(ys) - 1 - i
				}
				accs[k].Add(sum, lt.Measure*ys[i])
			}
			return nil
		})
		c := model.NewCube(schemas["S"])
		for _, y := range years {
			if err := c.Put([]model.Value{y}, accs[y.String()].Result(sum)); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	if d := sameBits(got, fold(false)); d != "" {
		t.Errorf("the sum is not the row-at-a-time fold: %s", d)
	}
	if sameBits(fold(true), fold(false)) == "" {
		t.Fatal("the fold's bits do not depend on its order: the test pins nothing")
	}
}

// TestCancelMidBatch: a calculator fails in the middle of the second batch of
// its stream. The run returns that error, no partial result, and no step
// goroutine outlives it.
func TestCancelMidBatch(t *testing.T) {
	// A period dimension of no fixed frequency holds months, then years (the
	// cube order puts finer frequencies first); month(t) is undefined on a
	// year and fails there, at row batchSize + batchSize/2.
	a := model.NewCube(model.NewSchema("A", []model.Dim{{Name: "t", Type: model.TAnyPeriod}}, "v"))
	months := batchSize + batchSize/2
	for i := 0; i < months; i++ {
		if err := a.Put([]model.Value{model.Per(model.NewMonthly(1900+i/12, time.Month(i%12+1)))}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3*batchSize; i++ {
		if err := a.Put([]model.Value{year(2100 + i)}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	schemas := map[string]model.Schema{
		"A": a.Schema(),
		"M": model.NewSchema("M", []model.Dim{{Name: "t", Type: model.TMonth}}, "v"),
	}
	flow := &Flow{
		TgdID: "mid", Target: "M",
		Steps: []Step{
			{Name: "in1", Type: TableInput, Table: "A", Fields: []string{"t", "v"}, As: []string{"t", "v"}},
			{Name: "calc", Type: Calculator, Calcs: []Calc{
				{Field: "d1", expr: frame.DimApply{Fn: "month", X: frame.Col{Name: "t"}}},
				{Field: "m", expr: frame.Col{Name: "v"}},
			}},
			{Name: "out", Type: TableOutput, Table: "M", Fields: []string{"d1", "m"}},
		},
		Hops: []Hop{{From: "in1", To: "calc"}, {From: "calc", To: "out"}},
	}
	m := &mapping.Mapping{Schemas: schemas, Elementary: []string{"A"}}
	before := runtime.NumGoroutine()
	out, err := RunContext(context.Background(), &Job{Flows: []*Flow{flow}}, m, map[string]*model.Cube{"A": a}, nil)
	if err == nil || !strings.Contains(err.Error(), "finer frequency") {
		t.Fatalf("err = %v, want the calculator's error", err)
	}
	if out != nil {
		t.Errorf("a failed run returned %v", out)
	}
	checkNoGoroutineLeak(t, before)
}

// TestRunsReadOneSourceConcurrently: two runs of the GDP job read one frozen
// source version at once, their rows referring to its tuples by ordinal.
// Each result is the one a run alone gives, bit for bit.
func TestRunsReadOneSourceConcurrently(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	src := workload.GDPSource(workload.GDPConfig{Days: 3 * batchSize, Regions: 4})
	for _, c := range src {
		c.Freeze()
	}
	job, err := Translate(m, "shared")
	if err != nil {
		t.Fatal(err)
	}
	alone, err := RunContext(context.Background(), job, m, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got [2]map[string]*model.Cube
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = RunContext(context.Background(), job, m, src, nil)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		for _, rel := range m.Derived {
			if d := sameBits(got[i][rel], alone[rel]); d != "" {
				t.Errorf("run %d, %s: %s", i, rel, d)
			}
		}
	}
}
