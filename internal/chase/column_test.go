package chase

import (
	"context"
	"math"
	"runtime"
	"testing"

	"exlengine/internal/model"
	"exlengine/internal/obs"
)

// TestColumnPathAllocatesNoMask: a statement whose operators are defined at
// every point costs its one output column, 8 bytes a tuple, and no mask of
// undefined points; one that meets undefined points drops exactly them.
func TestColumnPathAllocatesNoMask(t *testing.T) {
	src := Instance{"S": bigPanel().Freeze()}
	n := src["S"].Len()
	s := New(compile(t, "cube S(q: quarter, r: string) measure v\nA := ln(S) * 3\n"))
	if len(s.plans) != 1 || !s.plans[0].aligned {
		t.Fatalf("%d tgds, the last aligned: %v; want one", len(s.plans), s.plans[len(s.plans)-1].aligned)
	}
	if _, err := s.Solve(src); err != nil { // leaves S's order cached
		t.Fatal(err)
	}
	// TotalAlloc is the process's: other goroutines can only add to what a
	// run allocates, so the least of five runs is the closest reading.
	var sol Instance
	grown := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		sol, err = s.Solve(src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		grown = min(grown, after.TotalAlloc-before.TotalAlloc)
	}
	// The column is rounded up to whole pages; a mask would be n bytes more.
	if grown > uint64(8*n+8192) {
		t.Errorf("a run allocated %d bytes for %d output tuples: more than the output column", grown, n)
	}
	if a := sol["A"]; a.Len() != n || !a.SharesKeySet(src["S"]) {
		t.Errorf("A holds %d of %d tuples, on S's key set %v", a.Len(), n, a.SharesKeySet(src["S"]))
	}

	s = New(compile(t, "cube S(q: quarter, r: string) measure v\nA := ln(S - 100) * 3\n"))
	sol, err := s.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	_ = src["S"].ForEach(func(tu model.Tuple) error {
		if v, ok := sol["A"].Get(tu.Dims); tu.Measure > 100 != ok || ok && v != math.Log(tu.Measure-100)*3 {
			t.Fatalf("A%v = %v, %v over S = %v", tu.Dims, v, ok, tu.Measure)
		}
		if tu.Measure > 100 {
			want++
		}
		return nil
	})
	if sol["A"].Len() != want || want == n || want == 0 {
		t.Errorf("A holds %d tuples, want %d of %d", sol["A"].Len(), want, n)
	}
}

// TestColumnMaintenance: a statement of the column path over operands on its
// previous output's key set is maintained a row at a time through its program,
// to the full run's result exactly; where a recomputed point turns undefined
// or a delta inserts, the keyed path maintains it instead, to the same result.
// The chase.tgd.incr span says which.
func TestColumnMaintenance(t *testing.T) {
	s := New(compile(t, panelProgram+"F := sqrt(S) + A\nG := ln(D - 10)\n"))
	base := qrCube("S", 40, 25, func(q, r int) float64 { return float64(q*25+r+1) / 2 }, nil).Freeze()
	sol, err := s.Solve(Instance{"S": base})
	if err != nil {
		t.Fatal(err)
	}
	baseOut := make(map[string]*model.Cube, len(sol))
	for name, c := range sol {
		baseOut[name] = c.Freeze()
	}
	if baseOut["G"].SharesKeySet(base) || !baseOut["F"].SharesKeySet(base) {
		t.Fatal("G is to lack points of S's, F to have them all")
	}
	for _, c := range []struct {
		name string
		edit func(cur *model.Cube) error
		eval map[string]string // of each output's chase.tgd.incr span
	}{
		{"measures restated", func(cur *model.Cube) error {
			for i := 0; i < 30; i++ {
				if err := cur.Replace([]model.Value{quarter(i % 40), region(i % 23)}, float64(1000+i)); err != nil {
					return err
				}
			}
			return nil
		}, map[string]string{"A": "column", "B": "column", "C": "column", "D": "column", "F": "column", "G": "row"}},
		{"a root undefined", func(cur *model.Cube) error {
			if err := cur.Replace([]model.Value{quarter(3), region(4)}, 7); err != nil {
				return err
			}
			return cur.Replace([]model.Value{quarter(5), region(6)}, -7)
		}, map[string]string{"A": "column", "B": "column", "C": "column", "D": "column", "F": "row", "G": "row"}},
		{"a point inserted", func(cur *model.Cube) error {
			return cur.Put([]model.Value{quarter(41), region(0)}, 9)
		}, map[string]string{"A": "row", "B": "row", "C": "row", "D": "row", "F": "row", "G": "row"}},
	} {
		cur := base.Clone()
		if err := c.edit(cur); err != nil {
			t.Fatal(err)
		}
		cur.Freeze()
		want, err := s.Solve(Instance{"S": cur})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		in := &Front{Deltas: map[string]*model.CubeDelta{"S": model.DiffCubes("S", base, cur)}, Bases: baseOut}
		got, stats, err := s.Maintain(obs.ContextWithTracer(context.Background(), tr), Instance{"S": cur}, in)
		deltas := in.Deltas
		if err != nil || stats.Incremental != 6 {
			t.Fatalf("%s: stats = %+v, err = %v; want six tgds maintained", c.name, stats, err)
		}
		for name, w := range want {
			if diff := exactDiff(w, got[name]); len(diff) > 0 {
				t.Errorf("%s: %s diverges from the full run: %v", c.name, name, diff)
			}
			if d := deltas[name]; name != "S" && d != nil && d.Current != got[name] {
				t.Errorf("%s: %s's delta is not to the version maintained", c.name, name)
			}
		}
		for _, sp := range tr.Roots() {
			cube, _ := sp.Attr("cube")
			if eval, _ := sp.Attr("eval"); eval != c.eval[cube] {
				t.Errorf("%s: %s maintained with eval=%s, want %s", c.name, cube, eval, c.eval[cube])
			}
		}
	}
}
