package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"exlengine/internal/model"
	"exlengine/internal/ops"
)

// benchProgram is a four-statement derivation chain over a quarterly
// regional panel — the program of the panel workloads of go run ./bench,
// kept here so `go test -bench IncrementalStep -cpuprofile` can profile a
// single maintained step without the benchmark harness.
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

// allocated returns the bytes f allocates.
func allocated(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// maintainedStepBudget is what an incremental run may allocate to bring
// outputs of tuples tuples in all up to date where changed of them change,
// once the previous versions hold their order: a measure column per output
// (8 B per tuple) and as much again in slack, plus what grows with the delta
// alone. One row map copied, or one cube sorted, is several times that.
func maintainedStepBudget(tuples, changed int) int64 { return int64(16*tuples + 256*changed) }

// maintainedRun makes step i's incremental run on the chase and returns the
// bytes it allocated. Every derived cube must come out of it as a new
// version on the key set of the one it had before.
func maintainedRun(t *testing.T, e *Engine, i int) int64 {
	t.Helper()
	derived := []string{"A", "B", "C", "D"}
	prev := make(map[string]*model.Cube, len(derived))
	for _, name := range derived {
		prev[name], _ = e.Cube(name)
	}
	spent := allocated(func() {
		rep, err := e.Run(context.Background(), RunOn(ops.TargetChase), RunAt(panelDay(i)), WithIncremental())
		if err != nil || len(rep.Fragments) != 1 || !rep.Fragments[0].Incremental {
			t.Fatalf("step %d: not an incremental run: %+v, %v", i, rep, err)
		}
	})
	for _, name := range derived {
		if now, _ := e.Cube(name); now == prev[name] || !now.SharesKeySet(prev[name]) {
			t.Errorf("step %d: %s does not stand on its previous version's key set", i, name)
		}
	}
	return spent
}

// TestMaintainedStepAllocBudget: an incremental step over the 20k-tuple
// panel at 1 % churn applies each output's delta to its previous version's
// measure column (model.Cube.Apply) and copies no row map: from the second
// step on — the first builds the order and the index the later ones share —
// the run allocates within maintainedStepBudget, and every output stands on
// the key set of the version before.
func TestMaintainedStepAllocBudget(t *testing.T) {
	cur := panelCube(t, 200, 100)
	e := New()
	if err := e.RegisterProgram("p", benchProgram); err != nil {
		t.Fatal(err)
	}
	if err := e.PutCube(cur, panelDay(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), RunOn(ops.TargetChase), RunAt(panelDay(0)), WithIncremental()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		cur = revisePanel(cur, i)
		if err := e.PutCube(cur, panelDay(i)); err != nil {
			t.Fatal(err)
		}
		spent := maintainedRun(t, e, i)
		if budget := maintainedStepBudget(4*cur.Len(), 4*cur.Len()/100); i > 1 && spent > budget {
			t.Errorf("step %d allocated %d B, budget %d", i, spent, budget)
		}
	}
}
