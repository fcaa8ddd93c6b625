package chase

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
)

const panelProgram = `
cube S(q: quarter, r: string) measure v
A := S * 2
B := A + S
C := B - A
D := C * 0.5
`

func qrSchema(name string) model.Schema {
	return model.NewSchema(name,
		[]model.Dim{{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "v")
}

func quarter(i int) model.Value { return model.Per(model.NewQuarterly(1990, 1).Shift(int64(i))) }
func region(i int) model.Value  { return model.Str(fmt.Sprintf("r%03d", i)) }

// qrCube builds name(q, r) over quarters × regions with measure f(q, r);
// points where keep is false are left out.
func qrCube(name string, quarters, regions int, f func(q, r int) float64, keep func(q, r int) bool) *model.Cube {
	c := model.NewCube(qrSchema(name))
	for q := 0; q < quarters; q++ {
		for r := 0; r < regions; r++ {
			if keep != nil && !keep(q, r) {
				continue
			}
			if err := c.Put([]model.Value{quarter(q), region(r)}, f(q, r)); err != nil {
				panic(err)
			}
		}
	}
	return c
}

// bigPanel is the benchmark's panel: 200 quarters × 100 regions.
func bigPanel() *model.Cube {
	return qrCube("S", 200, 100, func(q, r int) float64 { return float64(q*100+r+1) / 4 }, nil)
}

// TestSolveAllocBudget pins what a full run of point-wise statements costs
// once the source's order is cached: a measure column per output — 8 bytes
// a tuple, which the column program writes into directly — and nothing per
// binding, nor a mask where no point is undefined. (Row-map outputs spent
// some 90 bytes a tuple; the interpreter before the compiled plans eight
// allocations on each of the panel's 80 000 bindings.)
func TestSolveAllocBudget(t *testing.T) {
	s := New(compile(t, panelProgram))
	src := Instance{"S": bigPanel().Freeze()}
	_, stats, err := s.Maintain(context.Background(), src, nil) // leaves S's order cached
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.Solve(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	tuples := float64(runs * (stats.TuplesGenerated - src["S"].Len()))
	bytes, allocs := float64(after.TotalAlloc-before.TotalAlloc)/tuples, float64(after.Mallocs-before.Mallocs)/tuples
	if bytes > 16 || allocs >= 0.01 {
		t.Errorf("%.1f bytes and %.4f allocations per output tuple, want <= 16 bytes and < 0.01 allocations", bytes, allocs)
	}
}

// BenchmarkSolvePanel is the full chase of the benchmark's panel — 20 000
// tuples, four point-wise tgds — with the source's order cached.
func BenchmarkSolvePanel(b *testing.B) {
	s := New(compile(b, panelProgram))
	src := Instance{"S": bigPanel().Freeze()}
	src["S"].View()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPanelCountsPinned pins what bench/ reads off the chase: the binding
// and tuple counts in Stats and in the chase.tgd span attributes, and that
// each of the four statements was computed a column at a time.
func TestPanelCountsPinned(t *testing.T) {
	s := New(compile(t, panelProgram))
	src := Instance{"S": bigPanel()}
	_, stats, err := s.Maintain(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strata != 4 || stats.Bindings != 80000 || stats.TuplesGenerated != 100000 {
		t.Errorf("stats = %+v, want 4 strata, 80000 bindings, 100000 tuples (20000 copied + 80000 derived)", *stats)
	}

	tr := obs.NewTracer()
	if _, err := s.SolveContext(obs.ContextWithTracer(context.Background(), tr), src); err != nil {
		t.Fatal(err)
	}
	spans := tr.Roots()
	if len(spans) != 4 {
		t.Fatalf("%d root spans, want one chase.tgd per tgd", len(spans))
	}
	for i, sp := range spans {
		cube, _ := sp.Attr("cube")
		bindings, _ := sp.Attr("bindings")
		tuples, _ := sp.Attr("tuples")
		eval, _ := sp.Attr("eval")
		if sp.Name != "chase.tgd" || cube != string("ABCD"[i]) || bindings != "20000" || tuples != "20000" || eval != "column" {
			t.Errorf("span %d = %s cube=%s bindings=%s tuples=%s eval=%s", i, sp.Name, cube, bindings, tuples, eval)
		}
	}
}

// TestSharedDimsAndKeys pins the sharing invariant the panel's speed rests
// on: an output defined at every tuple of its driving relation stands on that
// relation's key set, all the way down a chain of statements; one defined at
// some of them holds the kept subsequence, already in cube order, on the
// driving tuples' own Dims slices.
func TestSharedDimsAndKeys(t *testing.T) {
	s := New(compile(t, panelProgram+"E := D - shift(D, 1)\n"))
	src := qrCube("S", 3, 2, func(q, r int) float64 { return float64(q + r) }, nil)
	sol, err := s.Solve(Instance{"S": src.Freeze()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C", "D"} {
		if !sol[name].SharesKeySet(src) || !sol[name].Frozen() {
			t.Errorf("%s does not stand on S's key set", name)
		}
	}

	// E lacks the first quarter of every region.
	e := sol["E"]
	if e.SharesKeySet(src) || !e.Frozen() || e.Len() != 4 {
		t.Fatalf("E: %d tuples, on S's key set %v, frozen %v; want 4 on a key set of their own",
			e.Len(), e.SharesKeySet(src), e.Frozen())
	}
	mine := make(map[*model.Value]bool)
	_ = src.ForEach(func(tu model.Tuple) error { mine[&tu.Dims[0]] = true; return nil })
	want := qrCube("E", 3, 2, func(q, r int) float64 { return 0.5 }, func(q, r int) bool { return q > 0 }).Tuples()
	for i, tu := range e.Tuples() {
		if !mine[&tu.Dims[0]] {
			t.Errorf("E%v does not share S's Dims slice", tu.Dims)
		}
		if !tu.Dims[0].Equal(want[i].Dims[0]) || !tu.Dims[1].Equal(want[i].Dims[1]) || tu.Measure != want[i].Measure {
			t.Errorf("E's tuple %d is %v, want %v", i, tu, want[i])
		}
	}
}

// TestPositionalJoinOnlyOnOneKeySet: an operand is read at the driving row
// exactly where it stands on the driving relation's key set — and then the
// statement is computed a column at a time. An equal cube on a key set of its
// own is probed by key, binding by binding, to the same result bit for bit;
// one that lacks a tuple — every later row one off — still joins on the keys.
func TestPositionalJoinOnlyOnOneKeySet(t *testing.T) {
	s := New(compile(t, "cube S(q: quarter, r: string) measure v\ncube A(q: quarter, r: string) measure v\nB := A + S\n"))
	f := func(q, r int) float64 { return float64(q*7+r) / 3 }
	src := qrCube("S", 30, 7, f, nil).Freeze()
	onS, err := src.Derive(qrSchema("A"), func(_ int, tu model.Tuple) (float64, bool, error) { return 2 * tu.Measure, true, nil })
	if err != nil {
		t.Fatal(err)
	}
	double := func(q, r int) float64 { return 2 * f(q, r) }
	own := qrCube("A", 30, 7, double, nil).Freeze()
	short := qrCube("A", 30, 7, double, func(q, r int) bool { return q+r > 0 }).Freeze()

	want := qrCube("B", 30, 7, func(q, r int) float64 { return double(q, r) + f(q, r) }, nil)
	for _, c := range []struct {
		name       string
		a          *model.Cube
		positional bool
		tuples     int
	}{{"on S's key set", onS, true, 210}, {"equal, on its own", own, false, 210}, {"one tuple short", short, false, 209}} {
		target := Instance{"S": src, "A": c.a}
		ctx, span := obs.StartSpan(obs.ContextWithTracer(context.Background(), obs.NewTracer()), "chase.tgd")
		x, err := newExec(ctx, s.plans[0], s.plans[0].lhs, target)
		if err != nil {
			t.Fatal(err)
		}
		b, n, err := x.tupleLevel(qrSchema("B"))
		if err != nil || n != c.tuples || b.Len() != c.tuples {
			t.Fatalf("%s: %d tuples (%v), want %d", c.name, n, err, c.tuples)
		}
		if eval, _ := span.Attr("eval"); (eval == "column") != c.positional || eval != "column" && eval != "row" {
			t.Errorf("%s: eval=%s, want S joined by position: %v", c.name, eval, c.positional)
		}
		_ = b.Ordered(func(tu model.Tuple) error {
			if m, _ := want.Get(tu.Dims); m != tu.Measure {
				t.Fatalf("%s: B%v = %v, want %v", c.name, tu.Dims, tu.Measure, m)
			}
			return nil
		})
		if !b.SharesKeySet(c.a) {
			t.Errorf("%s: B does not stand on its driving relation's key set", c.name)
		}
	}
}

// TestFailingTupleIsFirstInCubeOrder: a point-wise tgd is applied in cube
// order, so the tuple a failing term names is the same run after run.
func TestFailingTupleIsFirstInCubeOrder(t *testing.T) {
	qr := []mapping.DimTerm{mapping.V("q"), mapping.V("r")}
	m := &mapping.Mapping{
		Schemas:    map[string]model.Schema{"S": qrSchema("S"), "O": qrSchema("O")},
		Elementary: []string{"S"},
		Tgds: []*mapping.Tgd{{
			ID: "lag", Kind: mapping.TupleLevel,
			Lhs: []mapping.Atom{
				{Rel: "S", Dims: qr, MVar: "v"},
				{Rel: "S", Dims: []mapping.DimTerm{mapping.V("q"), {Var: "r", Shift: 1}}, MVar: "w"},
			},
			Rhs:     mapping.Atom{Rel: "O", Dims: qr},
			Measure: mapping.MV("w"),
		}},
	}
	s := New(m)
	if !s.plans[0].shared {
		t.Fatal("the tgd is not point-wise on its driving atom")
	}
	for i := 0; i < 10; i++ {
		src := qrCube("S", 20, 50, func(q, r int) float64 { return 1 }, nil)
		_, err := s.Solve(Instance{"S": src})
		if err == nil || !strings.Contains(err.Error(), region(0).String()) {
			t.Fatalf("err = %v, want the shift to fail at %v, the first tuple in cube order", err, region(0))
		}
	}
}

// TestSolveConcurrentlyOnOneUnreadSource: chases started at once on a frozen
// row-map source nobody has read in order all build on the one order that
// gets cached on it — every output of every chase on one key set, but E's,
// which lacks the points where its logarithm is undefined — and every
// statement is computed a column at a time, E's through a scratch column
// and a mask of its own (run under -race).
func TestSolveConcurrentlyOnOneUnreadSource(t *testing.T) {
	s := New(compile(t, panelProgram+"E := ln(D - 100) * (A + S)\n"))
	src := qrCube("S", 60, 40, func(q, r int) float64 { return float64(q*r + 1) }, nil).Freeze()
	const solvers = 6
	sols := make([]Instance, solvers)
	tracers := make([]*obs.Tracer, solvers)
	var wg sync.WaitGroup
	for g := range sols {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tracers[g] = obs.NewTracer()
			sol, err := s.SolveContext(obs.ContextWithTracer(context.Background(), tracers[g]), Instance{"S": src})
			if err != nil {
				t.Errorf("solver %d: %v", g, err)
			}
			sols[g] = sol
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, sol := range sols {
		for _, name := range []string{"A", "B", "C", "D", "E"} {
			if on := sol[name].SharesKeySet(src); on != (name != "E") {
				t.Errorf("solver %d: %s on S's key set: %v", g, name, on)
			}
			if diff := exactDiff(sols[0][name], sol[name]); len(diff) > 0 {
				t.Errorf("solver %d: %s diverges: %v", g, name, diff)
			}
		}
		if n := sol["E"].Len(); n == 0 || n == src.Len() {
			t.Errorf("solver %d: E holds %d of %d tuples", g, n, src.Len())
		}
		for _, sp := range tracers[g].Roots() {
			if eval, _ := sp.Attr("eval"); eval != "column" {
				cube, _ := sp.Attr("cube")
				t.Errorf("solver %d: %s computed with eval=%s", g, cube, eval)
			}
		}
	}
}

// TestBlackBoxOutputSharesOperandKeySet: a black box returns one value per
// period of its operand, so its output is a measure column on the operand's
// key set.
func TestBlackBoxOutputSharesOperandKeySet(t *testing.T) {
	s := New(compile(t, "cube G(t: quarter) measure v\nC := cumsum(G)\n"))
	g := model.NewCube(model.NewSchema("G", []model.Dim{{Name: "t", Type: model.TQuarter}}, "v"))
	for i := 11; i >= 0; i-- {
		if err := g.Put([]model.Value{quarter(i)}, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	sol, stats, err := s.Maintain(context.Background(), Instance{"G": g.Freeze()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *stats != (Stats{Strata: 1, TuplesGenerated: 24, Bindings: 12}) {
		t.Errorf("stats = %+v, want 1 stratum, 12 bindings, 24 tuples (12 copied + 12 derived)", *stats)
	}
	c := sol["C"]
	if !c.SharesKeySet(g) || !c.Frozen() || c.Schema().Name != "C" {
		t.Fatalf("C (%s) does not stand on G's key set", c.Schema().Name)
	}
	for i, tu := range c.Tuples() {
		if want := float64((i + 1) * (i + 2) / 2); !tu.Dims[0].Equal(quarter(i)) || tu.Measure != want {
			t.Errorf("C's tuple %d is %v, want %v -> %v", i, tu, quarter(i), want)
		}
	}
}

// countdownCtx reports cancellation from its (after+1)th Err call on.
type countdownCtx struct {
	context.Context
	after, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelInsideStratum: a context cancelled while one tgd is being
// applied stops that tgd, full or incremental, instead of letting it run to
// the stratum boundary.
func TestCancelInsideStratum(t *testing.T) {
	src := Instance{"S": bigPanel().Freeze()}

	t.Run("full", func(t *testing.T) {
		s := New(compile(t, "cube S(q: quarter, r: string) measure v\nA := S * 2\n"))
		tr := obs.NewTracer()
		// Err call 1 is the stratum boundary, call 2 the first poll inside
		// the tgd, call 3 the second poll: cancelled there, as the tuple
		// that would have made binding 2*pollEvery is picked up.
		ctx := &countdownCtx{Context: obs.ContextWithTracer(context.Background(), tr), after: 2}
		_, err := s.SolveContext(ctx, src)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		got, _ := tr.Roots()[0].Attr("bindings")
		if n, _ := strconv.Atoi(got); n != 2*pollEvery-1 {
			t.Errorf("tgd stopped after %s of 20000 bindings, want %d", got, 2*pollEvery-1)
		}
	})

	t.Run("selective", func(t *testing.T) {
		// A selection that keeps one region: 20 000 tuples scanned, 200
		// bindings completed, fewer than one poll interval. The poll counts
		// the tuples, so the scan is still cut.
		r2 := region(2)
		m := &mapping.Mapping{
			Schemas: map[string]model.Schema{
				"S": qrSchema("S"),
				"O": model.NewSchema("O", []model.Dim{{Name: "q", Type: model.TQuarter}}, "v"),
			},
			Elementary: []string{"S"},
			Tgds: []*mapping.Tgd{{
				ID: "sel", Kind: mapping.TupleLevel,
				Lhs:     []mapping.Atom{{Rel: "S", Dims: []mapping.DimTerm{mapping.V("q"), {Const: &r2}}, MVar: "v"}},
				Rhs:     mapping.Atom{Rel: "O", Dims: []mapping.DimTerm{mapping.V("q")}},
				Measure: mapping.MV("v"),
			}},
		}
		s := New(m)
		sol, stats, err := s.Maintain(context.Background(), src, nil)
		if err != nil || stats.Bindings != 200 || sol["O"].Len() != 200 {
			t.Fatalf("uncancelled: stats = %+v, err = %v, want 200 bindings", stats, err)
		}
		tr := obs.NewTracer()
		ctx := &countdownCtx{Context: obs.ContextWithTracer(context.Background(), tr), after: 1}
		if _, err := s.SolveContext(ctx, src); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		got, _ := tr.Roots()[0].Attr("bindings")
		if n, _ := strconv.Atoi(got); n >= 200 {
			t.Errorf("tgd ran to its last binding (%s of 200) before looking at its context", got)
		}
	})

	t.Run("incremental", func(t *testing.T) {
		s := New(compile(t, "cube S(q: quarter, r: string) measure v\nT := sum(S, group by q)\n"))
		base, err := s.Solve(src)
		if err != nil {
			t.Fatal(err)
		}
		// On a key set of its own, whose grouping nobody has kept: a Clone
		// would stand on the source's, and bind the affected group alone.
		cur := model.NewCube(src["S"].Schema())
		_ = src["S"].ForEach(func(tu model.Tuple) error { return cur.Put(tu.Dims, tu.Measure) })
		if err := cur.Replace([]model.Value{quarter(7), region(7)}, -1); err != nil {
			t.Fatal(err)
		}
		in := &Front{
			Deltas: map[string]*model.CubeDelta{"S": model.DiffCubes("S", src["S"], cur)},
			Bases:  map[string]*model.Cube{"T": base["T"].Freeze()},
		}
		// The one affected group is re-aggregated by a scan of all 20 000
		// tuples; the first poll inside it is cancelled.
		ctx := &countdownCtx{Context: context.Background(), after: 1}
		_, _, err = s.Maintain(ctx, Instance{"S": cur}, in)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if _, stats, err := s.Maintain(context.Background(), Instance{"S": cur}, in); err != nil || stats.Incremental != 1 {
			t.Fatalf("uncancelled: stats = %+v, err = %v, want one tgd maintained", stats, err)
		}
	})
}

// TestOneStatementFourShapes runs the vectorial sum O = X + Y as four
// tgd shapes — the rhs on the driving atom's dimension tuple, on a
// permutation of it, on a shifted one, and under a constant selection —
// against a closed form, in full and maintained from deltas. The shapes
// take the plan's different routes (shared keys, re-encoded keys, computed
// probe keys, filtered scan); the answer is the same sum.
func TestOneStatementFourShapes(t *testing.T) {
	const quarters, regions = 12, 5
	fx := func(q, r int) float64 { return float64(q*10 + r) }
	fy := func(q, r int) float64 { return float64(q*r) / 4 }
	// Y misses a diagonal, so the inner join drops points.
	keepY := func(q, r int) bool { return q%regions != r }
	// The second version changes measures, drops X points and adds Y ones.
	fx2 := func(q, r int) float64 {
		if q%3 == 1 {
			return fx(q, r) + 0.5
		}
		return fx(q, r)
	}
	keepX2 := func(q, r int) bool { return (q+r)%7 != 0 }
	keepY2 := func(q, r int) bool { return q%regions != r || q > 8 }

	v, sh := mapping.V, func(name string, by int64) mapping.DimTerm { return mapping.DimTerm{Var: name, Shift: by} }
	r2 := region(2)
	konst := mapping.DimTerm{Const: &r2}
	qSchema := func(name string) model.Schema {
		return model.NewSchema(name, []model.Dim{{Name: "q", Type: model.TQuarter}}, "v")
	}
	rqSchema := func(name string) model.Schema {
		return model.NewSchema(name,
			[]model.Dim{{Name: "r", Type: model.TString}, {Name: "q", Type: model.TQuarter}}, "v")
	}

	cases := []struct {
		name   string
		lhs    []mapping.Atom
		rhs    []mapping.DimTerm
		schema model.Schema
		// point maps an X point to the output point and the Y point it
		// joins with; ok is false when the shape selects the X point away.
		point func(q, r int) (dims []model.Value, yq, yr int, ok bool)
	}{
		{
			name:   "identity",
			lhs:    []mapping.Atom{{Rel: "X", Dims: []mapping.DimTerm{v("q"), v("r")}, MVar: "x"}, {Rel: "Y", Dims: []mapping.DimTerm{v("q"), v("r")}, MVar: "y"}},
			rhs:    []mapping.DimTerm{v("q"), v("r")},
			schema: qrSchema("O"),
			point: func(q, r int) ([]model.Value, int, int, bool) {
				return []model.Value{quarter(q), region(r)}, q, r, true
			},
		},
		{
			name:   "permuted",
			lhs:    []mapping.Atom{{Rel: "X", Dims: []mapping.DimTerm{v("q"), v("r")}, MVar: "x"}, {Rel: "Y", Dims: []mapping.DimTerm{v("q"), v("r")}, MVar: "y"}},
			rhs:    []mapping.DimTerm{v("r"), v("q")},
			schema: rqSchema("O"),
			point: func(q, r int) ([]model.Value, int, int, bool) {
				return []model.Value{region(r), quarter(q)}, q, r, true
			},
		},
		{
			// O(q+1, r) = X(q, r) + Y(q-2, r)
			name:   "shifted",
			lhs:    []mapping.Atom{{Rel: "X", Dims: []mapping.DimTerm{v("q"), v("r")}, MVar: "x"}, {Rel: "Y", Dims: []mapping.DimTerm{sh("q", -2), v("r")}, MVar: "y"}},
			rhs:    []mapping.DimTerm{sh("q", 1), v("r")},
			schema: qrSchema("O"),
			point: func(q, r int) ([]model.Value, int, int, bool) {
				return []model.Value{quarter(q + 1), region(r)}, q - 2, r, true
			},
		},
		{
			// O(q) = X(q, "r002") + Y(q, "r002")
			name:   "constant-filtered",
			lhs:    []mapping.Atom{{Rel: "X", Dims: []mapping.DimTerm{v("q"), konst}, MVar: "x"}, {Rel: "Y", Dims: []mapping.DimTerm{v("q"), konst}, MVar: "y"}},
			rhs:    []mapping.DimTerm{v("q")},
			schema: qSchema("O"),
			point: func(q, r int) ([]model.Value, int, int, bool) {
				return []model.Value{quarter(q)}, q, r, r == 2
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &mapping.Mapping{
				Schemas:    map[string]model.Schema{"X": qrSchema("X"), "Y": qrSchema("Y"), "O": tc.schema},
				Elementary: []string{"X", "Y"},
				Tgds: []*mapping.Tgd{{
					ID: "t1", Kind: mapping.TupleLevel, Lhs: tc.lhs,
					Rhs:     mapping.Atom{Rel: "O", Dims: tc.rhs},
					Measure: mapping.MApp("add", mapping.MV("x"), mapping.MV("y")),
				}},
			}
			closedForm := func(fx func(q, r int) float64, keepX, keepY func(q, r int) bool) *model.Cube {
				want := model.NewCube(tc.schema)
				for q := 0; q < quarters; q++ {
					for r := 0; r < regions; r++ {
						dims, yq, yr, ok := tc.point(q, r)
						if !ok || (keepX != nil && !keepX(q, r)) || yq < 0 || !keepY(yq, yr) {
							continue
						}
						if err := want.Put(dims, fx(q, r)+fy(yq, yr)); err != nil {
							t.Fatal(err)
						}
					}
				}
				return want
			}
			s := New(m)

			base := Instance{"X": qrCube("X", quarters, regions, fx, nil), "Y": qrCube("Y", quarters, regions, fy, keepY)}
			baseSol, err := s.Solve(base)
			if err != nil {
				t.Fatal(err)
			}
			if lines := exactDiff(closedForm(fx, nil, keepY), baseSol["O"]); len(lines) > 0 || baseSol["O"].Len() == 0 {
				t.Fatalf("full chase diverges from the closed form (%d tuples): %v", baseSol["O"].Len(), lines)
			}

			cur := Instance{"X": qrCube("X", quarters, regions, fx2, keepX2), "Y": qrCube("Y", quarters, regions, fy, keepY2)}
			in := &Front{
				Deltas: map[string]*model.CubeDelta{
					"X": model.DiffCubes("X", base["X"], cur["X"]),
					"Y": model.DiffCubes("Y", base["Y"], cur["Y"]),
				},
				Bases: map[string]*model.Cube{"O": baseSol["O"].Freeze()},
			}
			sol, stats, err := s.Maintain(context.Background(), cur, in)
			deltas := in.Deltas
			if err != nil {
				t.Fatal(err)
			}
			if stats.Incremental != 1 {
				t.Errorf("stats = %+v, want the tgd maintained from its deltas", *stats)
			}
			want := closedForm(fx2, keepX2, keepY2)
			if lines := exactDiff(want, sol["O"]); len(lines) > 0 {
				t.Errorf("incremental chase diverges from the closed form: %v", lines)
			}
			if d := model.DiffCubes("O", baseSol["O"], want); d.Size() == 0 || deltas["O"].Size() != d.Size() {
				t.Errorf("output delta has %d tuples, want %d", deltas["O"].Size(), d.Size())
			}
		})
	}
}

// TestEgdViolationNamesFirstConflictInCubeOrder: a projection without
// aggregation violates the egd at every output point; full and incremental
// chase both name the first one in cube order, with its first two values,
// run after run.
func TestEgdViolationNamesFirstConflictInCubeOrder(t *testing.T) {
	m := &mapping.Mapping{
		Schemas: map[string]model.Schema{
			"A": qrSchema("A"),
			"B": model.NewSchema("B", []model.Dim{{Name: "q", Type: model.TQuarter}}, "v"),
		},
		Elementary: []string{"A"},
		Tgds: []*mapping.Tgd{{
			ID: "proj", Kind: mapping.TupleLevel,
			Lhs:     []mapping.Atom{{Rel: "A", Dims: []mapping.DimTerm{mapping.V("q"), mapping.V("r")}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("q")}},
			Measure: mapping.MV("v"),
		}},
	}
	a := qrCube("A", 40, 6, func(q, r int) float64 { return float64(100*q + r) }, nil)
	const want = "chase: applying proj (B): model: functional dependency violation (egd): B[1990-Q1] has values 0 and 1"
	wantIncr := "chase: applying proj (B) incrementally: " + want[len("chase: applying proj (B): "):]

	s := New(m)
	for i := 0; i < 10; i++ {
		_, err := s.Solve(Instance{"A": a.Clone()})
		if !errors.Is(err, model.ErrFunctional) || err.Error() != want {
			t.Fatalf("full: %v\nwant: %s", err, want)
		}
		// A changed input with a previous output to maintain: the
		// projection is not key-determined, so the tgd is re-applied in full.
		cur := a.Clone()
		if err := cur.Replace([]model.Value{quarter(30), region(3)}, -5); err != nil {
			t.Fatal(err)
		}
		in := &Front{
			Deltas: map[string]*model.CubeDelta{"A": model.DiffCubes("A", a, cur)},
			Bases:  map[string]*model.Cube{"B": model.NewCube(m.Schemas["B"]).Freeze()},
		}
		_, _, err = s.Maintain(context.Background(), Instance{"A": cur}, in)
		if !errors.Is(err, model.ErrFunctional) || err.Error() != wantIncr {
			t.Fatalf("incremental: %v\nwant: %s", err, wantIncr)
		}
	}
}

// TestSolverConcurrentUse: a Solver's compiled plans are shared by every
// application; nothing one chase mutates is reachable from another. Run
// under -race.
func TestSolverConcurrentUse(t *testing.T) {
	s := New(compile(t, panelProgram+"T := sum(D, group by q)\n"))
	src := Instance{"S": qrCube("S", 40, 10, func(q, r int) float64 { return float64(q*r + 1) }, nil).Freeze()}
	want, err := s.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	cur := src["S"].Clone()
	if err := cur.Replace([]model.Value{quarter(3), region(3)}, 99); err != nil {
		t.Fatal(err)
	}
	cur.Freeze()
	deltas, bases := map[string]*model.CubeDelta{"S": model.DiffCubes("S", src["S"], cur)}, map[string]*model.Cube{}
	for name, c := range want {
		bases[name] = c.Freeze()
	}
	wantCur, err := s.Solve(Instance{"S": cur})
	if err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var got, ref Instance
			var err error
			if g%2 == 0 {
				got, err = s.Solve(src)
				ref = want
			} else {
				// Each chase publishes into a front of its own.
				got, _, err = s.Maintain(context.Background(), Instance{"S": cur}, &Front{Deltas: maps.Clone(deltas), Bases: bases})
				ref = wantCur
			}
			for name, w := range ref {
				if err == nil && len(exactDiff(w, got[name])) > 0 {
					err = fmt.Errorf("goroutine %d: %s diverges", g, name)
				}
			}
			errs <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestMaintenanceProbesPerKey: maintaining a tuple-level tgd recomputes each
// affected point by one binding, so 400 changed tuples of 20 000 bind 400
// points a statement, where a full run binds every tuple once. (A recompute
// that scanned an operand per point — same answers, every test green — once
// made the incremental benchmark ten times slower: 1 600 scans are 1 600 full
// runs' worth of bindings.)
func TestMaintenanceProbesPerKey(t *testing.T) {
	s := New(compile(t, panelProgram))
	base := bigPanel().Freeze()
	sol, err := s.Solve(Instance{"S": base})
	if err != nil {
		t.Fatal(err)
	}
	baseOut := make(map[string]*model.Cube, len(sol))
	for name, c := range sol {
		baseOut[name] = c.Freeze()
	}
	for _, changed := range []int{1, 400} {
		cur := base.Clone()
		for i := 0; i < changed; i++ {
			if err := cur.Replace([]model.Value{quarter(i % 200), region(i % 97)}, -float64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		in := &Front{Deltas: map[string]*model.CubeDelta{"S": model.DiffCubes("S", base, cur)}, Bases: baseOut}
		_, stats, err := s.Maintain(context.Background(), Instance{"S": cur}, in)
		// Each of the four statements recomputes the changed points, each by
		// one binding: nothing else is bound.
		if err != nil || stats.Incremental != 4 || stats.KeysRecomputed != 4*changed || stats.Bindings != stats.KeysRecomputed {
			t.Errorf("%d changed tuples: stats = %+v, err = %v; want %d points recomputed by as many bindings", changed, stats, err, 4*changed)
		}
	}
}

// TestPartialKeyJoin: a later atom that binds a new variable is probed on
// part of its key, through an index built on its first probe. T(r) ⋈ S(q, r)
// — the weights T applied to every quarter of S — tuple by tuple and summed
// per quarter, against closed forms, in full and from deltas of either side.
func TestPartialKeyJoin(t *testing.T) {
	const quarters, regions = 9, 6
	m := compile(t, `
cube T(r: string) measure w
cube S(q: quarter, r: string) measure v
O := T * S
A := sum(T * S, group by q)
`)
	for _, tg := range m.Tgds {
		if len(tg.Lhs) != 2 {
			t.Fatalf("tgd %s has %d lhs atoms, want the two-atom join", tg, len(tg.Lhs))
		}
	}
	weights := func(w func(r int) float64, keep func(r int) bool) *model.Cube {
		c := model.NewCube(model.NewSchema("T", []model.Dim{{Name: "r", Type: model.TString}}, "w"))
		for r := 0; r < regions; r++ {
			if keep(r) {
				if err := c.Put([]model.Value{region(r)}, w(r)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return c
	}
	type version struct {
		w     func(r int) float64
		keepT func(r int) bool
		v     func(q, r int) float64
		keepS func(q, r int) bool
	}
	instance := func(ver version) Instance {
		return Instance{"T": weights(ver.w, ver.keepT), "S": qrCube("S", quarters, regions, ver.v, ver.keepS)}
	}
	check := func(t *testing.T, what string, ver version, sol Instance) {
		t.Helper()
		wantO := model.NewCube(m.Schemas["O"])
		wantA := model.NewCube(m.Schemas["A"])
		for q := 0; q < quarters; q++ {
			sum, any := 0.0, false
			for r := 0; r < regions; r++ {
				if !ver.keepT(r) || !ver.keepS(q, r) {
					continue
				}
				p := ver.w(r) * ver.v(q, r)
				if err := wantO.Put([]model.Value{quarter(q), region(r)}, p); err != nil {
					t.Fatal(err)
				}
				sum, any = sum+p, true
			}
			if any {
				if err := wantA.Put([]model.Value{quarter(q)}, sum); err != nil {
					t.Fatal(err)
				}
			}
		}
		if lines := exactDiff(wantO, sol["O"]); len(lines) > 0 || sol["O"].Len() == 0 {
			t.Errorf("%s: O diverges from the closed form (%d tuples): %v", what, sol["O"].Len(), lines)
		}
		if lines := exactDiff(wantA, sol["A"]); len(lines) > 0 || sol["A"].Len() == 0 {
			t.Errorf("%s: A diverges from the closed form (%d tuples): %v", what, sol["A"].Len(), lines)
		}
	}

	// Powers of two and small integers: every product and sum is exact.
	base := version{
		w:     func(r int) float64 { return float64(int(1) << r) },
		keepT: func(r int) bool { return r != 4 },
		v:     func(q, r int) float64 { return float64(10*q + r + 1) },
		keepS: func(q, r int) bool { return (q+r)%5 != 0 },
	}
	movedS := base
	movedS.v = func(q, r int) float64 { return base.v(q, r) + float64(q%2) }
	movedS.keepS = func(q, r int) bool { return (q+r)%5 != 0 || q == 3 }
	movedT := base
	movedT.w = func(r int) float64 { return base.w(r) + float64(r%2) }
	movedT.keepT = func(r int) bool { return r != 1 }

	s := New(m)
	baseInst := instance(base)
	baseSol, err := s.Solve(baseInst)
	if err != nil {
		t.Fatal(err)
	}
	check(t, "full", base, baseSol)

	for _, tc := range []struct {
		name string
		ver  version
		// incremental is how many of the two tgds are maintained from the
		// delta: S's tuples name the output points of O, T's do not.
		incremental int
	}{{"S moved", movedS, 1}, {"T moved", movedT, 0}} {
		cur := instance(tc.ver)
		in := &Front{
			Deltas: map[string]*model.CubeDelta{
				"S": model.DiffCubes("S", baseInst["S"], cur["S"]),
				"T": model.DiffCubes("T", baseInst["T"], cur["T"]),
			},
			Bases: map[string]*model.Cube{"O": baseSol["O"], "A": baseSol["A"]},
		}
		sol, stats, err := s.Maintain(context.Background(), cur, in)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Incremental != tc.incremental {
			t.Errorf("%s: stats = %+v, want %d tgds maintained", tc.name, *stats, tc.incremental)
		}
		check(t, tc.name, tc.ver, sol)
	}
}
