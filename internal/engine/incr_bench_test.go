package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// benchProgram is a four-statement derivation chain over a quarterly
// regional panel — the same shape as exlbench's E15 incremental
// experiment, kept here so `go test -bench IncrementalStep -cpuprofile`
// can profile a single maintained step without the benchmark harness.
const benchProgram = `
cube S(q: quarter, r: string) measure v

A := S * 2
B := A + S
C := B - A
D := C * 0.5
`

// panelCube builds the S cube of benchProgram: quarters × regions tuples.
func panelCube(tb testing.TB, quarters, regions int) *model.Cube {
	tb.Helper()
	sch := model.NewSchema("S",
		[]model.Dim{{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "v")
	c := model.NewCube(sch)
	start := model.NewQuarterly(1990, 1)
	for q := 0; q < quarters; q++ {
		for r := 0; r < regions; r++ {
			dims := []model.Value{model.Per(start.Shift(int64(q))), model.Str(fmt.Sprintf("r%02d", r))}
			if err := c.Put(dims, float64(q*regions+r)*0.25+1); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return c
}

// revisePanel returns revision i of the panel: cur with one measure in a
// hundred changed, at positions that move with i.
func revisePanel(cur *model.Cube, i int) *model.Cube {
	next := cur.Clone()
	for j, tu := range cur.Tuples() {
		if (j+i*37)%100 == 7 {
			next.Replace(tu.Dims, tu.Measure*1.01+0.01)
		}
	}
	return next
}

// BenchmarkIncrementalStep measures one delta-driven recomputation step
// at 1% churn on a 200k-row panel: churn + PutCube happen off the clock,
// so the timed region is exactly Run(WithIncremental()).
func BenchmarkIncrementalStep(b *testing.B) {
	seed := panelCube(b, 2000, 100)
	e := New()
	if err := e.RegisterProgram("p", benchProgram); err != nil {
		b.Fatal(err)
	}
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := e.PutCube(seed, t0); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.Run(ctx, RunOn(ops.TargetChase), RunAt(t0), WithIncremental()); err != nil {
		b.Fatal(err)
	}
	cur := seed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cur = revisePanel(cur, i)
		at := t0.Add(time.Duration(i+1) * 24 * time.Hour)
		if err := e.PutCube(cur, at); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := e.Run(ctx, RunOn(ops.TargetChase), RunAt(at), WithIncremental()); err != nil {
			b.Fatal(err)
		}
	}
}
