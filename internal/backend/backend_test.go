package backend

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"exlengine/internal/exl"
	"exlengine/internal/exlerr"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/sqlgen"
	"exlengine/internal/workload"
)

func compile(t testing.TB, src string) *mapping.Mapping {
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

func annual(t *testing.T, name string, from, to int, base float64) *model.Cube {
	t.Helper()
	c := model.NewCube(model.NewSchema(name, []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
	for y := from; y <= to; y++ {
		if err := c.Put([]model.Value{model.Per(model.NewAnnual(y))}, base+float64(y-from)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// nonFunctional is a projection that drops a dimension without aggregating,
// over an instance where that makes B[1990-Q1] both 1 and 2.
func nonFunctional(t *testing.T) (*mapping.Mapping, map[string]*model.Cube) {
	t.Helper()
	m := &mapping.Mapping{
		Schemas: map[string]model.Schema{
			"A": model.NewSchema("A", []model.Dim{{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "v"),
			"B": model.NewSchema("B", []model.Dim{{Name: "q", Type: model.TQuarter}}, "v"),
		},
		Elementary: []string{"A"},
		Derived:    []string{"B"},
		Tgds: []*mapping.Tgd{{
			ID: "proj", Kind: mapping.TupleLevel,
			Lhs:     []mapping.Atom{{Rel: "A", Dims: []mapping.DimTerm{mapping.V("q"), mapping.V("r")}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "B", Dims: []mapping.DimTerm{mapping.V("q")}},
			Measure: mapping.MV("v"),
		}},
	}
	a := model.NewCube(m.Schemas["A"])
	for i, r := range []string{"R0", "R1"} {
		if err := a.Put([]model.Value{model.Per(model.NewQuarterly(1990, 1)), model.Str(r)}, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return m, map[string]*model.Cube{"A": a}
}

// TestRunOnEveryTarget is the contract of Run, target by target: the result
// is exactly m.Derived and equals the chase solution; a missing elementary
// cube is the empty relation; what a target cannot express is a typed
// refusal; an egd violation is the same typed error naming the same tuple;
// a cancelled context is a cancellation and leaves no goroutine behind.
func TestRunOnEveryTarget(t *testing.T) {
	egdM, egdData := nonFunctional(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	gdp := compile(t, workload.GDPProgram)
	gdpData := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 3})

	everywhere := func(is func(error) bool) func(ops.Target) func(error) bool {
		return func(ops.Target) func(error) bool { return is }
	}
	cases := []struct {
		name string
		ctx  context.Context
		m    *mapping.Mapping
		data map[string]*model.Cube
		// wantErr gives what tells the error a target must fail with, or
		// nil for a target that must succeed (every target, when unset).
		wantErr func(ops.Target) func(error) bool
	}{
		{name: "gdp", m: gdp, data: gdpData},
		{
			name: "padded vector",
			m:    compile(t, "cube A(t: year) measure v\ncube B(t: year) measure v\nS := vsum0(A, B)\nD := vsub0(A, B) * 2"),
			data: map[string]*model.Cube{"A": annual(t, "A", 2000, 2004, 10), "B": annual(t, "B", 2002, 2006, 100)},
			wantErr: func(target ops.Target) func(error) bool {
				if target != ops.TargetSQL {
					return nil
				}
				return func(err error) bool {
					return errors.Is(err, sqlgen.ErrUntranslatable) && exlerr.ClassOf(err) == exlerr.Fatal
				}
			},
		},
		{
			name: "series",
			m:    compile(t, "cube S(t: month) measure v\nT := stl_t(S)\nC := cumsum(S)\nM := movavg(T, 3)"),
			data: map[string]*model.Cube{"S": workload.Series(workload.SeriesConfig{
				Name: "S", Freq: model.Monthly, N: 60, Trend: 0.5, SeasonAmp: 10, NoiseAmp: 1, Seed: 3})},
		},
		{
			name: "egd violation", m: egdM, data: egdData,
			wantErr: everywhere(func(err error) bool {
				return errors.Is(err, model.ErrFunctional) && exlerr.ClassOf(err) == exlerr.EgdViolation &&
					strings.HasSuffix(err.Error(), "model: functional dependency violation (egd): B[1990-Q1] has values 1 and 2")
			}),
		},
		{
			name: "missing elementary cube",
			m:    compile(t, "cube A(t: year) measure v\ncube B(t: year) measure v\nS := A + B\nN := A * 2\nK := count(B)"),
			data: map[string]*model.Cube{"A": annual(t, "A", 2000, 2004, 10)},
		},
		{name: "cancelled", ctx: cancelled, m: gdp, data: gdpData, wantErr: everywhere(exlerr.IsCancellation)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			ref, _ := Run(context.Background(), ops.TargetChase, tc.m, tc.data, nil)
			for _, target := range ops.AllTargets {
				got, err := Run(ctx, target, tc.m, tc.data, nil)
				if tc.wantErr != nil {
					if is := tc.wantErr(target); is != nil {
						if !is(err) || got != nil {
							t.Errorf("%s: error %v with result %v is not the failure this case wants", target, err, got)
						}
						continue
					}
				}
				if err != nil {
					t.Errorf("%s: %v", target, err)
					continue
				}
				if len(got) != len(tc.m.Derived) {
					t.Errorf("%s returned %d cubes, want exactly the %d of m.Derived", target, len(got), len(tc.m.Derived))
				}
				tol := 1e-6
				if target == ops.TargetChase {
					tol = 0
				}
				for _, rel := range tc.m.Derived {
					if got[rel] == nil {
						t.Errorf("%s: missing %s", target, rel)
					} else if !got[rel].Equal(ref[rel], tol) {
						t.Errorf("%s: %s differs from the chase:\n%s", target, rel,
							strings.Join(got[rel].Diff(ref[rel], tol, 5), "\n"))
					}
				}
			}
			// Every goroutine a target started (ETL's streaming steps) has
			// exited, or does so as soon as it is scheduled.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines left behind", n-before)
			}
		})
	}
}

// panel is P(t: year, r: string) over four years and four regions, with
// zeros, negatives and measures repeated within a year.
func panel(t *testing.T) *model.Cube {
	t.Helper()
	p := model.NewCube(model.NewSchema("P", []model.Dim{{Name: "t", Type: model.TYear}, {Name: "r", Type: model.TString}}, "v"))
	for i, v := range []float64{0, -1.5, 2.25, 2.25, 3, -0.5, 0, 7.125, -2, -2, -2, 1e-3, 0.1, 0.2, 0.3, -0.7} {
		dims := []model.Value{model.Per(model.NewAnnual(2000 + i/4)), model.Str(string(rune('a' + i%4)))}
		if err := p.Put(dims, v); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestEveryFoldOnEveryTarget: a single-atom aggregation folds the same
// measures in the same order with the same code (ops.Acc) on every target, so
// each of the eight folds gives the chase's result bit for bit.
func TestEveryFoldOnEveryTarget(t *testing.T) {
	data := map[string]*model.Cube{"P": panel(t)}
	for _, agg := range []string{"sum", "avg", "min", "max", "count", "median", "stddev", "prod"} {
		m := compile(t, "cube P(t: year, r: string) measure v\nX := "+agg+"(P, group by t)")
		ref, err := Run(context.Background(), ops.TargetChase, m, data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ref["X"].Len() != 4 {
			t.Fatalf("%s: the chase gives %d groups, want 4", agg, ref["X"].Len())
		}
		for _, target := range ops.AllTargets {
			got, err := Run(context.Background(), target, m, data, nil)
			if err != nil {
				t.Errorf("%s on %s: %v", agg, target, err)
			} else if !got["X"].Equal(ref["X"], 0) {
				t.Errorf("%s on %s differs from the chase:\n%s", agg, target, strings.Join(got["X"].Diff(ref["X"], 0, 5), "\n"))
			}
		}
	}
}

// TestUnknownAggregationRefused: a hand-built aggregation tgd naming no fold
// fails on every target, over any data — none to aggregate, or none defined.
func TestUnknownAggregationRefused(t *testing.T) {
	schema := func(name string, dims ...model.Dim) model.Schema { return model.NewSchema(name, dims, "v") }
	year := model.Dim{Name: "t", Type: model.TYear}
	m := &mapping.Mapping{
		Schemas:    map[string]model.Schema{"P": schema("P", year, model.Dim{Name: "r", Type: model.TString}), "X": schema("X", year)},
		Elementary: []string{"P"},
		Derived:    []string{"X"},
		Tgds: []*mapping.Tgd{{
			ID: "mode", Kind: mapping.Aggregation, Agg: "mode",
			Lhs:     []mapping.Atom{{Rel: "P", Dims: []mapping.DimTerm{mapping.V("t"), mapping.V("r")}, MVar: "v"}},
			Rhs:     mapping.Atom{Rel: "X", Dims: []mapping.DimTerm{mapping.V("t")}},
			Measure: mapping.MApp("ln", mapping.MV("v")),
		}},
	}
	undefined := model.NewCube(m.Schemas["P"])
	if err := undefined.Put([]model.Value{model.Per(model.NewAnnual(2000)), model.Str("a")}, -1); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]map[string]*model.Cube{"empty": nil, "all undefined": {"P": undefined}} {
		for _, target := range ops.AllTargets {
			got, err := Run(context.Background(), target, m, data, nil)
			if err == nil || !strings.Contains(err.Error(), `"mode"`) || got != nil {
				t.Errorf("%s on %s: error %v with result %v, want the unknown aggregation refused", name, target, err, got)
			}
		}
	}
}

func TestRunUnknownTarget(t *testing.T) {
	if _, err := Run(context.Background(), "cobol", compile(t, workload.GDPProgram), nil, nil); err == nil {
		t.Error("unknown target must fail")
	}
}

// TestRenderGolden holds every artifact kind to what engine.Translate
// returned for the GDP program before Render existed.
func TestRenderGolden(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	for _, kind := range []string{ArtifactTgds, ArtifactSQL, ArtifactR, ArtifactMatlab, ArtifactETL} {
		want, err := os.ReadFile(filepath.Join("testdata", "gdp."+kind+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Render(kind, m, "gdp")
		if err != nil {
			t.Errorf("%s: %v", kind, err)
		} else if got != string(want) {
			t.Errorf("%s differs from the golden:\n%s", kind, got)
		}
	}
	if _, err := Render("cobol", m, "gdp"); err == nil {
		t.Error("unknown artifact kind must fail")
	}
}

// TestPartitionBuiltConcurrently: three SQL databases and a chase fold two
// versions of one key set at once, the first to group it (run under -race). Each
// builds the partition outside the key set's lock and the first insert under it
// stands — one per signature, and one array between the two signatures, since
// SQL and the chase assign every row alike. Every result is the one a run on a
// key set of its own gives.
func TestPartitionBuiltConcurrently(t *testing.T) {
	m := compile(t, "cube PDR(d: day, r: string) measure p\nPQR := avg(PDR, group by quarter(d) as q, r)\n")
	base := workload.GDPSource(workload.GDPConfig{Days: 400, Regions: 5})["PDR"].Freeze()
	revision, err := base.Derive(base.Schema(), func(i int, tu model.Tuple) (float64, bool, error) { return tu.Measure + float64(i%7), true, nil })
	if err != nil {
		t.Fatal(err)
	}
	versions := []*model.Cube{base, revision}
	var want [2]*model.Cube
	for i, v := range versions {
		own := model.NewCube(v.Schema()) // a key set of its own: a Clone would stand on v's
		_ = v.ForEach(func(tu model.Tuple) error { return own.Put(tu.Dims, tu.Measure) })
		ref, err := Run(context.Background(), ops.TargetChase, m, map[string]*model.Cube{"PDR": own}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref["PQR"]
	}
	before := base.MemEstimate()

	targets := []ops.Target{ops.TargetSQL, ops.TargetSQL, ops.TargetSQL, ops.TargetChase}
	got := make([]*model.Cube, len(targets))
	var wg sync.WaitGroup
	for g, target := range targets {
		wg.Add(1)
		go func(g int, target ops.Target) {
			defer wg.Done()
			out, err := Run(context.Background(), target, m, map[string]*model.Cube{"PDR": versions[g%2]}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = out["PQR"]
		}(g, target)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, target := range targets {
		tol := 1e-9
		if target == ops.TargetChase {
			tol = 0
		}
		if !got[g].Equal(want[g%2], tol) {
			t.Errorf("%s over version %d: %v", target, g%2, got[g].Diff(want[g%2], tol, 3))
		}
	}
	if grew, one := revision.MemEstimate()-before, int64(4*(base.Len()+want[0].Len())); grew != one {
		t.Errorf("the key set's partitions are charged %d bytes, want %d: one array of rows, one of groups", grew, one)
	}
}

// productTgd is the GDP program's product tgd alone, RGDP := RGDPPC * PQR,
// and its input over 10 000 days × 20 regions (2 200 tuples on each side),
// with PQR the chase's.
func productTgd(tb testing.TB) (*mapping.Mapping, map[string]*model.Cube) {
	gdp := compile(tb, workload.GDPProgram)
	data := workload.GDPSource(workload.GDPConfig{Days: 10000, Regions: 20})
	pqr, err := Run(context.Background(), ops.TargetChase, gdp, data, nil)
	if err != nil {
		tb.Fatal(err)
	}
	m := compile(tb, fmt.Sprintf("cube RGDPPC(q: quarter, r: string) measure %s\ncube PQR(q: quarter, r: string) measure %s\nRGDP := RGDPPC * PQR",
		gdp.Schemas["RGDPPC"].Measure, gdp.Schemas["PQR"].Measure))
	return m, map[string]*model.Cube{"RGDPPC": data["RGDPPC"], "PQR": pqr["PQR"]}
}

// steadyRunAlloc runs m on target in steady state, as the dispatcher re-runs
// a program: run i reads input(i) and is handed the previous run's outputs as
// their predecessors. Each run's cube out must be bit-equal to want(i) and lie
// on its predecessor's key set. It returns the least bytes one of five runs
// allocated — TotalAlloc is the process's, and other goroutines can only add
// to what a run allocates, so the least is the closest reading — and the
// number of tuples a run outputs.
func steadyRunAlloc(t *testing.T, target ops.Target, m *mapping.Mapping, out string, input func(i int) map[string]*model.Cube, want func(i int) *model.Cube) (uint64, int) {
	t.Helper()
	prev, err := Run(context.Background(), target, m, input(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	grown := uint64(math.MaxUint64)
	for i := 1; i <= 5; i++ {
		in := input(i)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(context.Background(), target, m, in, prev)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameBits(res[out], want(i)); d != "" {
			t.Fatalf("run %d differs from the chase's: %s", i, d)
		}
		if !res[out].SharesKeySet(prev[out]) {
			t.Fatalf("run %d's %s is not on its predecessor's key set", i, out)
		}
		grown, prev = min(grown, after.TotalAlloc-before.TotalAlloc), res
	}
	return grown, prev[out].Len()
}

// productRuns is steadyRunAlloc of the product tgd alone on target, the
// inputs the same every run.
func productRuns(t *testing.T, target ops.Target) (uint64, int) {
	m, input := productTgd(t)
	want, err := Run(context.Background(), ops.TargetChase, m, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	return steadyRunAlloc(t, target, m, "RGDP", func(int) map[string]*model.Cube { return input },
		func(int) *model.Cube { return want["RGDP"] })
}

// TestETLProductRefersToItsSources runs Figure 1's flow, the product tgd
// alone, on the ETL target in steady state. Its rows refer to the source
// tuples instead of copying them, and its merge step indexes the build rows
// by the hash of their key without keeping a key, so a run allocates at most
// 100 bytes an output tuple.
func TestETLProductRefersToItsSources(t *testing.T) {
	grown, n := productRuns(t, ops.TargetETL)
	if grown > uint64(100*n) {
		t.Errorf("a run allocated %d bytes for %d output tuples, %d an output tuple: more than 100", grown, n, grown/uint64(n))
	}
}

// raceEnabled reports whether the tests run under the race detector
// (race_test.go sets it).
var raceEnabled bool

// TestETLProductAligns runs Figure 1's flow, the product tgd alone, on the ETL
// target in steady state. Its merge aligns the two key sets
// (TestMergeAlignsOrHashes): the right stream is drained without being
// buffered, and no key is encoded or hashed, so a run allocates at most 25
// bytes an output tuple, under half the 51 it allocated when the merge hashed.
// How many batches a flow makes depends on how its steps' goroutines
// interleave, so the flow runs on one processor, where they interleave alike
// run after run, and not under the race detector, whose instrumentation
// allocates on its own account.
func TestETLProductAligns(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	grown, n := productRuns(t, ops.TargetETL)
	if grown > uint64(25*n) {
		t.Errorf("a run allocated %d bytes for %d output tuples, %d an output tuple: more than 25", grown, n, grown/uint64(n))
	}
}

// TestFrameProductRefersToItsSources runs the product tgd's R program alone
// on the frame target in steady state. A frame holds its rows as an ETL
// stream does: FromCube refers to the cube's tuples, Copy and SelectCols
// relabel columns, and the merge and the calculation run the ETL steps'
// bodies over the frame's one batch, so a run allocates at most 200 bytes an
// output tuple.
func TestFrameProductRefersToItsSources(t *testing.T) {
	grown, n := productRuns(t, ops.TargetFrame)
	if grown > uint64(200*n) {
		t.Errorf("a run allocated %d bytes for %d output tuples, %d an output tuple: more than 200", grown, n, grown/uint64(n))
	}
}

// TestSQLProductRefersToItsSources runs the product tgd alone on the SQL
// target in steady state. Its batches keep each scanned dimension as row
// ordinals into the scanned version and each number as a float64, the join
// indexes its build rows without keeping a key, and the result follows its
// predecessor unsorted, so a run allocates at most 200 bytes an output tuple.
func TestSQLProductRefersToItsSources(t *testing.T) {
	grown, n := productRuns(t, ops.TargetSQL)
	if grown > uint64(200*n) {
		t.Errorf("a run allocated %d bytes for %d output tuples, %d an output tuple: more than 200", grown, n, grown/uint64(n))
	}
}

// TestSQLGroupRefersToItsSources runs PQR on the SQL target in steady state
// over versions of the 200k-tuple PDR on one key set, the shape of
// BenchmarkGroupByRevisions: the groups are the key set's partition, the fold
// reads each version's measure column where it lies, and a group is emitted as
// its first row's ordinal beside its fold's result. A run allocates at most 200
// bytes an output group.
func TestSQLGroupRefersToItsSources(t *testing.T) {
	m := compile(t, "cube PDR(d: day, r: string) measure p\nPQR := avg(PDR, group by quarter(d) as q, r)\n")
	base := workload.GDPSource(workload.GDPConfig{Days: 10000, Regions: 20})["PDR"].Freeze()
	versions := make([]map[string]*model.Cube, 6)
	want := make([]*model.Cube, len(versions))
	for i := range versions {
		v, err := base.Derive(base.Schema(), func(_ int, tu model.Tuple) (float64, bool, error) { return tu.Measure + float64(i), true, nil })
		if err != nil {
			t.Fatal(err)
		}
		versions[i] = map[string]*model.Cube{"PDR": v}
		ref, err := Run(context.Background(), ops.TargetChase, m, versions[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref["PQR"]
	}
	grown, n := steadyRunAlloc(t, ops.TargetSQL, m, "PQR", func(i int) map[string]*model.Cube { return versions[i] },
		func(i int) *model.Cube { return want[i] })
	if grown > uint64(200*n) {
		t.Errorf("a run allocated %d bytes for %d output groups, %d an output group: more than 200", grown, n, grown/uint64(n))
	}
}

// BenchmarkProductOnEveryTarget runs the GDP program's product tgd alone,
// RGDP := RGDPPC * PQR, over 10 000 days × 20 regions (2 200 tuples on each
// side), with PQR the chase's: on the ETL target this is Figure 1's flow.
// Each run is handed the previous run's RGDP as its predecessor, as the
// dispatcher hands a re-run the stored version, so B/op is the steady state.
func BenchmarkProductOnEveryTarget(b *testing.B) {
	m, input := productTgd(b)
	pqr := input["PQR"]
	for _, target := range ops.AllTargets {
		b.Run(string(target), func(b *testing.B) {
			prev, err := Run(context.Background(), target, m, input, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := Run(context.Background(), target, m, input, prev)
				if err != nil {
					b.Fatal(err)
				}
				if out["RGDP"].Len() != pqr.Len() {
					b.Fatalf("RGDP has %d tuples, want %d", out["RGDP"].Len(), pqr.Len())
				}
				prev = out
			}
		})
	}
}

// sameBits describes how got differs from want — another tuple, or a measure
// with other bits — or is "" where they are equal.
func sameBits(got, want *model.Cube) string {
	g, w := got.Tuples(), want.Tuples()
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

// TestResultFollowsItsPredecessor runs the GDP mapping on every target that
// builds its results from rows, handing each run the previous one's outputs
// as their predecessors. A predecessor never changes a result: it is the one
// a run with none gives, bit for bit. Where a result holds its predecessor's
// dimension tuples it stands on the predecessor's key set — after a
// revision that only moves measures, every derived cube does — and where it
// does not, or the predecessor is under another schema, on a key set of its
// own. The empty version of a declared cube that has no data behaves as no
// predecessor.
func TestResultFollowsItsPredecessor(t *testing.T) {
	m := compile(t, workload.GDPProgram)
	base := workload.GDPSource(workload.GDPConfig{Days: 200, Regions: 3})
	for _, c := range base {
		c.Freeze()
	}
	pdr := base["PDR"]
	revised, err := pdr.Derive(pdr.Schema(), func(i int, tu model.Tuple) (float64, bool, error) {
		if i%100 == 0 {
			return tu.Measure * 1.01, true, nil
		}
		return tu.Measure, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	grown := pdr.Clone() // one day in a quarter no day was in: PQR gains a tuple
	day := model.NewDaily(2000, time.January, 1).Shift(400)
	if err := grown.Put([]model.Value{model.Per(day), model.Str(workload.RegionName(0))}, 1e6); err != nil {
		t.Fatal(err)
	}
	grown.Freeze()
	with := func(pdr *model.Cube) map[string]*model.Cube {
		return map[string]*model.Cube{"PDR": pdr, "RGDPPC": base["RGDPPC"]}
	}
	alien, empty := map[string]*model.Cube{}, map[string]*model.Cube{}
	every := func(share bool) map[string]bool {
		out := map[string]bool{}
		for _, name := range m.Derived {
			out[name] = share
		}
		return out
	}
	for _, name := range m.Derived {
		other := model.NewCube(model.NewSchema(name, []model.Dim{{Name: "t", Type: model.TYear}}, "v"))
		if err := other.Put([]model.Value{model.Per(model.NewAnnual(2000))}, 1); err != nil {
			t.Fatal(err)
		}
		alien[name], empty[name] = other.Freeze(), model.NewCube(m.Schemas[name]).Freeze()
	}

	for _, target := range []ops.Target{ops.TargetSQL, ops.TargetETL, ops.TargetFrame} {
		t.Run(string(target), func(t *testing.T) {
			run := func(input, prev map[string]*model.Cube) map[string]*model.Cube {
				t.Helper()
				out, err := Run(context.Background(), target, m, input, prev)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			first := run(with(pdr), nil)
			cases := []struct {
				name  string
				input map[string]*model.Cube
				prev  map[string]*model.Cube
				// shares says of a derived cube whether its result stands on
				// its predecessor's key set; a cube it does not list, either.
				shares map[string]bool
			}{
				{"measures revised", with(revised), first, every(true)},
				{"one day inserted", with(grown), first, map[string]bool{"PQR": false}},
				{"another schema", with(revised), alien, every(false)},
				{"empty predecessor", with(pdr), empty, nil},
			}
			for _, tc := range cases {
				got, want := run(tc.input, tc.prev), run(tc.input, nil)
				for _, name := range m.Derived {
					if diff := sameBits(got[name], want[name]); diff != "" {
						t.Errorf("%s: %s on its predecessor: %s", tc.name, name, diff)
					}
					if share, ok := tc.shares[name]; ok && got[name].SharesKeySet(tc.prev[name]) != share {
						t.Errorf("%s: %s shares its predecessor's key set: %v, want %v", tc.name, name, !share, share)
					}
				}
			}
		})
	}
}
