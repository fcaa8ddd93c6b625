package exlengine

// The paper's performance tables: one benchmark per experiment E5–E10 of
// DESIGN.md "Experiments", run with
//
//	go test -run '^$' -bench 'BenchmarkE(5|6|7|8|9|10)_' .
//
// The artifacts of E1–E4 are pinned byte for byte by the goldens of
// internal/backend (TestRenderGolden). The benchmarks after E10 pin
// properties of the store, the compile cache, dispatch and tracing;
// regressions are measured by go run ./bench.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"exlengine/internal/backend"
	"exlengine/internal/chase"
	"exlengine/internal/engine"
	"exlengine/internal/etl"
	"exlengine/internal/exl"
	"exlengine/internal/mapping"
	"exlengine/internal/matlabgen"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/rgen"
	"exlengine/internal/sqlengine"
	"exlengine/internal/sqlgen"
	"exlengine/internal/store"
	"exlengine/internal/workload"
)

func mustAnalyze(b *testing.B, src string) *exl.Analyzed {
	b.Helper()
	prog, err := exl.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func mustCompile(b *testing.B, src string) *mapping.Mapping {
	b.Helper()
	m, err := mapping.Generate(mustAnalyze(b, src))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkE5_EndToEnd measures the complete Figure 2 pipeline:
// determination, partitioning, mixed-target dispatch and storage.
func BenchmarkE5_EndToEnd(b *testing.B) {
	data := workload.GDPSource(workload.GDPConfig{Days: 1000, Regions: 10})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.WithParallelDispatch())
		if err := eng.RegisterProgram("gdp", workload.GDPProgram); err != nil {
			b.Fatal(err)
		}
		t0 := time.Unix(0, 0)
		for _, name := range []string{"PDR", "RGDPPC"} {
			if err := eng.PutCube(data[name], t0); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := eng.Run(context.Background(), RunAt(t0)); err != nil {
			b.Fatal(err)
		}
	}
}

func runTarget(b *testing.B, target ops.Target, m *mapping.Mapping, data workload.Data) map[string]*model.Cube {
	b.Helper()
	out, err := backend.Run(context.Background(), target, m, data)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkE6_TargetComparison runs the full GDP program on every target
// over growing inputs: the paper's interchangeability claim, measured.
func BenchmarkE6_TargetComparison(b *testing.B) {
	m := mustCompile(b, workload.GDPProgram)
	for _, days := range []int{100, 1000, 10000} {
		data := workload.GDPSource(workload.GDPConfig{Days: days, Regions: 20})
		for _, target := range ops.AllTargets {
			b.Run(fmt.Sprintf("%s/days=%d", target, days), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out := runTarget(b, target, m, data)
					if out["PCHNG"] == nil {
						b.Fatal("missing PCHNG")
					}
				}
			})
		}
	}
}

// BenchmarkE7_TranslateVsExecute contrasts offline translation cost with
// online calculation cost (Section 6's "does not affect the global elapsed
// time").
func BenchmarkE7_TranslateVsExecute(b *testing.B) {
	m := mustCompile(b, workload.GDPProgram)
	data := workload.GDPSource(workload.GDPConfig{Days: 10000, Regions: 20})
	b.Run("translate-all-targets", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sqlgen.Translate(m); err != nil {
				b.Fatal(err)
			}
			if _, err := rgen.Translate(m); err != nil {
				b.Fatal(err)
			}
			if _, err := matlabgen.Translate(m); err != nil {
				b.Fatal(err)
			}
			if _, err := etl.Translate(m, "bench"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute-sql-10000d", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runTarget(b, ops.TargetSQL, m, data)
		}
	})
}

// BenchmarkE8_IncrementalVsFull measures the determination engine's
// incremental recalculation against a full run over a 32-program catalog.
func BenchmarkE8_IncrementalVsFull(b *testing.B) {
	const nProg, months = 32, 240 // series length chosen so one full run is ~100ms
	programs := make(map[string]string, nProg)
	data := workload.Data{}
	for i := 0; i < nProg; i++ {
		programs[fmt.Sprintf("p%02d", i)] = fmt.Sprintf(`
cube S%02d(t: month) measure v
A%02d := S%02d * 2
B%02d := movavg(A%02d, 3)
C%02d := (B%02d - shift(B%02d, 1)) * 100 / shift(B%02d, 1)
`, i, i, i, i, i, i, i, i, i)
		data[fmt.Sprintf("S%02d", i)] = workload.Series(workload.SeriesConfig{
			Name: fmt.Sprintf("S%02d", i), Freq: model.Monthly, N: months,
			Seed: int64(i + 1), Level: 100, Trend: 0.5, SeasonAmp: 5, NoiseAmp: 1,
		})
	}
	build := func(opts ...engine.Option) *engine.Engine {
		eng := engine.New(opts...)
		for i := 0; i < nProg; i++ {
			name := fmt.Sprintf("p%02d", i)
			if err := eng.RegisterProgram(name, programs[name]); err != nil {
				b.Fatal(err)
			}
		}
		for _, c := range data {
			if err := eng.PutCube(c, time.Unix(0, 0)); err != nil {
				b.Fatal(err)
			}
		}
		return eng
	}
	b.Run("full", func(b *testing.B) {
		eng := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), RunAt(time.Unix(int64(i+1), 0))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-parallel", func(b *testing.B) {
		// Component-aware partitioning + wave-parallel dispatch: the 32
		// independent programs overlap (Section 6's parallelization).
		eng := build(engine.WithParallelDispatch())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), RunAt(time.Unix(int64(i+1), 0))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental-1-leaf", func(b *testing.B) {
		eng := build()
		if _, err := eng.Run(context.Background(), RunAt(time.Unix(1, 0))); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), RunChanged("S00"), RunAt(time.Unix(int64(i+2), 0))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9_FusionAblation compares chasing the fused mapping (one tgd
// per statement) with the normalized one (one tgd per operator, auxiliary
// cubes materialized). The program is a tuple-level scalar chain, the case
// where normalization materializes several full-size auxiliary cubes.
func BenchmarkE9_FusionAblation(b *testing.B) {
	const chainProgram = `
cube A(t: day) measure v
B := ((((A * 2) + A) / 3 - A) * 100) / (A + 1)
`
	fused, err := mapping.Generate(mustAnalyze(b, chainProgram))
	if err != nil {
		b.Fatal(err)
	}
	norm, err := mapping.GenerateNormalized(mustAnalyze(b, chainProgram))
	if err != nil {
		b.Fatal(err)
	}
	data := workload.Data{"A": workload.Series(workload.SeriesConfig{
		Name: "A", Freq: model.Daily, N: 100000, Level: 50, Trend: 0.01, NoiseAmp: 1, Seed: 9,
	})}
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := chase.New(fused).Solve(chase.Instance(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("normalized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := chase.New(norm).Solve(chase.Instance(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Section 6 variant: auxiliaries as relational views on the SQL target.
	runSQL := func(b *testing.B, opts sqlgen.Options) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db := sqlengine.NewDB()
			for _, name := range norm.Elementary {
				if err := db.LoadCube(data[name]); err != nil {
					b.Fatal(err)
				}
			}
			script, err := sqlgen.TranslateWith(norm, opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := sqlgen.Execute(script, db); err != nil {
				b.Fatal(err)
			}
			if _, err := db.ExtractCube(norm.Schemas["B"]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("normalized-sql-tables", func(b *testing.B) { runSQL(b, sqlgen.Options{}) })
	b.Run("normalized-sql-views", func(b *testing.B) { runSQL(b, sqlgen.Options{AuxAsViews: true}) })
}

// BenchmarkE10_ChaseScaling measures the stratified chase over growing
// source instances.
func BenchmarkE10_ChaseScaling(b *testing.B) {
	m := mustCompile(b, workload.GDPProgram)
	for _, rows := range []int{1000, 10000, 100000} {
		data := workload.GDPSource(workload.GDPConfig{Days: rows / 20, Regions: 20})
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := chase.New(m).Solve(chase.Instance(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11_ConcurrentRuns measures throughput of N goroutines
// re-running the compiled GDP program against one shared store — the
// workload the zero-copy read path is built for. Every iteration is a
// full run (snapshot, dispatch, persist) plus a read-back of all cubes;
// the store hands out shared frozen references, so worker count should
// scale throughput instead of multiplying clone traffic.
func BenchmarkE11_ConcurrentRuns(b *testing.B) {
	data := workload.GDPSource(workload.GDPConfig{Days: 1000, Regions: 10})
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := engine.New(engine.WithParallelDispatch())
			if err := eng.RegisterProgram("gdp", workload.GDPProgram); err != nil {
				b.Fatal(err)
			}
			for _, name := range []string{"PDR", "RGDPPC"} {
				if err := eng.PutCube(data[name], time.Unix(0, 0)); err != nil {
					b.Fatal(err)
				}
			}
			asOf := time.Unix(1, 0)
			b.ReportAllocs()
			b.ResetTimer()
			runs, err := workload.RunConcurrently(context.Background(),
				workload.ConcurrentConfig{Workers: workers, Iters: b.N},
				func(ctx context.Context) error {
					if _, err := eng.Run(ctx, engine.RunAt(asOf)); err != nil {
						return err
					}
					for _, name := range eng.CubeNames() {
						eng.Cube(name)
					}
					return nil
				})
			if err != nil {
				b.Fatal(err)
			}
			if runs != workers*b.N {
				b.Fatalf("completed %d runs, want %d", runs, workers*b.N)
			}
		})
	}
}

// BenchmarkStoreSnapshot pins the tentpole property: Snapshot and Get
// return shared frozen references, so read cost must not scale with cube
// size. Before the zero-copy change both deep-cloned every cube and the
// 100000-row case was ~1000x the 100-row one.
func BenchmarkStoreSnapshot(b *testing.B) {
	for _, rows := range []int{100, 10000, 100000} {
		st := store.New()
		c := workload.Series(workload.SeriesConfig{
			Name: "S", Freq: model.Daily, N: rows, Level: 100, Trend: 0.1, NoiseAmp: 1, Seed: 7,
		})
		if err := st.Put(c, time.Unix(0, 0)); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snap, _, _ := st.SnapshotWithGenerations()
				if snap["S"] == nil {
					b.Fatal("missing cube")
				}
				if _, ok := st.Get("S"); !ok {
					b.Fatal("missing cube")
				}
			}
		})
	}
}

// BenchmarkCompileCache contrasts a cold compile (parse + analyze +
// generate + fuse) with a cache hit (one fingerprint hash and a map
// lookup) for the GDP program.
func BenchmarkCompileCache(b *testing.B) {
	ctx := context.Background()
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.ResetCompileCache()
			if _, err := engine.CompileCached(ctx, workload.GDPProgram, nil, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		engine.ResetCompileCache()
		if _, err := engine.CompileCached(ctx, workload.GDPProgram, nil, true); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.CompileCached(ctx, workload.GDPProgram, nil, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTracedRun quantifies the cost of the observability layer on a
// fault-free end-to-end GDP run: "off" runs with no tracer and no metrics
// attached (spans reduce to two context lookups), "traced" records the
// full span tree and every counter on each iteration.
func BenchmarkTracedRun(b *testing.B) {
	data := workload.GDPSource(workload.GDPConfig{Days: 1000, Regions: 10})
	setup := func(b *testing.B, opts ...engine.Option) *engine.Engine {
		eng := engine.New(opts...)
		if err := eng.RegisterProgram("gdp", workload.GDPProgram); err != nil {
			b.Fatal(err)
		}
		t0 := time.Unix(0, 0)
		for _, name := range []string{"PDR", "RGDPPC"} {
			if err := eng.PutCube(data[name], t0); err != nil {
				b.Fatal(err)
			}
		}
		return eng
	}
	t0 := time.Unix(0, 0)
	b.Run("off", func(b *testing.B) {
		eng := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), engine.RunAt(t0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		tracer := obs.NewTracer()
		eng := setup(b, engine.WithTracer(tracer), engine.WithMetrics(obs.NewRegistry()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tracer.Reset()
			if _, err := eng.Run(context.Background(), engine.RunAt(t0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
