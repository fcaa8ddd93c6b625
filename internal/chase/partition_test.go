package chase

import (
	"context"
	"testing"

	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/workload"
)

// tgdSpan returns the chase's span for the tgd that makes cube, of the one run
// the tracer saw.
func tgdSpan(t *testing.T, tr *obs.Tracer, cube string) *obs.Span {
	t.Helper()
	for _, sp := range tr.Roots() {
		if got, _ := sp.Attr("cube"); got == cube {
			return sp
		}
	}
	t.Fatalf("no span for the tgd of %s", cube)
	return nil
}

// TestAggregationByPartition: an aggregation whose group key is a function of
// its one relation's dimension tuples groups a key set once. The first full
// run hashes every row's key and leaves the key set its partition; a full run
// over a revision folds by ordinal; a maintained run binds the members of the
// affected groups and no other row. All three are, to the bit, what a chase
// that has never seen the key set computes.
func TestAggregationByPartition(t *testing.T) {
	r2 := region(2)
	selected := &mapping.Mapping{ // T(q) = sum over S(q, r002): a selection rides in the grouping
		Schemas: map[string]model.Schema{
			"S": qrSchema("S"),
			"T": model.NewSchema("T", []model.Dim{{Name: "q", Type: model.TQuarter}}, "v"),
		},
		Elementary: []string{"S"},
		Derived:    []string{"T"},
		Tgds: []*mapping.Tgd{{
			ID: "sel", Kind: mapping.Aggregation, Agg: "sum",
			Lhs:     []mapping.Atom{{Rel: "S", Dims: []mapping.DimTerm{mapping.V("q"), {Const: &r2}}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "T", Dims: []mapping.DimTerm{mapping.V("q")}},
			Measure: mapping.MV("v"),
		}},
	}
	cases := []struct {
		name    string
		m       *mapping.Mapping
		members int // rows of S in the affected groups
	}{
		{"by year and region", compile(t, "cube S(q: quarter, r: string) measure v\nT := stddev(S, group by year(q) as y, r)\n"), 2 * 4},
		{"by region", compile(t, "cube S(q: quarter, r: string) measure v\nT := median(S, group by r)\n"), 2 * 40},
		{"undefined points", compile(t, "cube S(q: quarter, r: string) measure v\nT := sum(ln(S - 50), group by q)\n"), 2 * 7},
		{"under a selection", selected, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const quarters, regions = 40, 7
			f := func(q, r int) float64 { return float64((q*13+r*29)%101) + 0.25 }
			base := qrCube("S", quarters, regions, f, nil).Freeze()
			// Two tuples restated, in two groups of every case but the selection's.
			revision, err := base.Apply(nil, []model.Tuple{
				{Dims: []model.Value{quarter(5), region(2)}, Measure: 77},
				{Dims: []model.Value{quarter(30), region(4)}, Measure: 3},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			s := New(tc.m)
			run := func(src *model.Cube, incr *Front) (Instance, *obs.Span, *obs.Registry, *Stats) {
				t.Helper()
				tr, met := obs.NewTracer(), obs.NewRegistry()
				ctx := obs.ContextWithMetrics(obs.ContextWithTracer(context.Background(), tr), met)
				var sol Instance
				var stats *Stats
				var err error
				if incr != nil {
					sol, stats, err = s.Maintain(ctx, Instance{"S": src}, incr)
				} else {
					sol, err = s.SolveContext(ctx, Instance{"S": src})
				}
				if err != nil {
					t.Fatal(err)
				}
				return sol, tgdSpan(t, tr, "T"), met, stats
			}
			check := func(what string, got Instance, src *model.Cube, sp *obs.Span, met *obs.Registry, groups string, built, reused int64) {
				t.Helper()
				unseen, err := s.Solve(Instance{"S": src.Clone()})
				if err != nil {
					t.Fatal(err)
				}
				if diff := exactDiff(unseen["T"], got["T"]); len(diff) > 0 || got["T"].Len() == 0 {
					t.Errorf("%s: T has %d tuples and differs from a chase on a key set of its own: %v", what, got["T"].Len(), diff)
				}
				if g, _ := sp.Attr("groups"); g != groups {
					t.Errorf("%s: the tgd's span says groups=%s, want %s", what, g, groups)
				}
				if b, r := met.Counter(obs.MetricPartitionsBuilt).Value(), met.Counter(obs.MetricPartitionsReused).Value(); b != built || r != reused {
					t.Errorf("%s: %d partitions built and %d reused, want %d and %d", what, b, r, built, reused)
				}
			}

			first, sp, met, _ := run(base, nil)
			check("first full run", first, base, sp, met, "hash", 1, 0)
			full, sp, met, _ := run(revision, nil)
			check("full run over a revision", full, revision, sp, met, "partition", 0, 1)
			wantBindings, _ := sp.Attr("bindings")

			maintained, sp, met, stats := run(revision, &Front{
				Deltas: map[string]*model.CubeDelta{"S": model.DiffCubes("S", base, revision)},
				Bases:  map[string]*model.Cube{"T": first["T"]},
			})
			check("maintained run", maintained, revision, sp, met, "partition", 0, 1)
			if got, _ := sp.Attr("bindings"); stats.Incremental != 1 || stats.Bindings != tc.members || got == wantBindings {
				t.Errorf("maintained run: %+v; it bound %s rows, want %d, the affected groups' members (a full run binds %s)",
					*stats, got, tc.members, wantBindings)
			}
		})
	}
}

// TestAggregationOffThePartition: an aggregation over a join, or whose key
// reads a measure, hashes its groups as before and leaves key sets alone.
func TestAggregationOffThePartition(t *testing.T) {
	m := compile(t, "cube X(q: quarter, r: string) measure v\ncube Y(q: quarter, r: string) measure v\nT := sum(X * Y, group by r)\n")
	x := qrCube("X", 8, 3, func(q, r int) float64 { return float64(q + r) }, nil).Freeze()
	y := qrCube("Y", 8, 3, func(q, r int) float64 { return float64(q * r) }, nil).Freeze()
	tr, met := obs.NewTracer(), obs.NewRegistry()
	ctx := obs.ContextWithMetrics(obs.ContextWithTracer(context.Background(), tr), met)
	sol, err := New(m).SolveContext(ctx, Instance{"X": x, "Y": y})
	if err != nil || sol["T"].Len() != 3 {
		t.Fatalf("T has %d tuples, err %v", sol["T"].Len(), err)
	}
	if g, _ := tgdSpan(t, tr, "T").Attr("groups"); g != "hash" || met.Counter(obs.MetricPartitionsBuilt).Value() != 0 {
		t.Errorf("a join's aggregation says groups=%s and built %d partitions", g, met.Counter(obs.MetricPartitionsBuilt).Value())
	}
}

// BenchmarkIncrAggregation is the maintained PQR of the GDP program: a 40k-tuple
// PDR, a 1 % revision on its key set, the affected groups re-folded.
func BenchmarkIncrAggregation(b *testing.B) {
	m := compile(b, "cube PDR(d: day, r: string) measure p\nPQR := avg(PDR, group by quarter(d) as q, r)\n")
	s := New(m)
	base := workload.GDPSource(workload.GDPConfig{Days: 2000, Regions: 20})["PDR"].Freeze()
	baseOut, err := s.Solve(Instance{"PDR": base})
	if err != nil {
		b.Fatal(err)
	}
	var restated []model.Tuple
	for i, tu := range base.Tuples() {
		if i%100 == 37 {
			restated = append(restated, model.Tuple{Dims: tu.Dims, Measure: tu.Measure + 1})
		}
	}
	revision, err := base.Apply(nil, restated, nil)
	if err != nil {
		b.Fatal(err)
	}
	in := &Front{
		Deltas: map[string]*model.CubeDelta{"PDR": model.DiffCubes("PDR", base, revision)},
		Bases:  map[string]*model.Cube{"PQR": baseOut["PQR"]},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stats, err := s.Maintain(context.Background(), Instance{"PDR": revision}, in); err != nil || stats.Incremental != 1 {
			b.Fatalf("stats %+v, err %v", stats, err)
		}
	}
}
