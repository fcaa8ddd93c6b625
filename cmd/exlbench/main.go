// Command exlbench regenerates every experiment of EXPERIMENTS.md: the
// paper's artifacts (tgds, SQL, R, Matlab, ETL flows; experiments E1-E5)
// and the performance tables the paper's claims imply (E6-E10). Output is
// plain text, one section per experiment.
//
// Usage:
//
//	exlbench [-run all|e1|e2|...|e10] [-quick]
//
// Performance regressions are measured by the benchmark, go run ./bench.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
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
	"exlengine/internal/workload"
)

var quick bool

func main() {
	run := flag.String("run", "all", "experiment to run (e1..e10 or all)")
	flag.BoolVar(&quick, "quick", false, "smaller sweeps for fast runs")
	flag.Parse()

	experiments := []struct {
		id   string
		name string
		fn   func()
	}{
		{"e1", "E1: EXL program -> schema mapping (paper Section 2, tgds 1-5)", e1},
		{"e2", "E2: SQL translation (paper Section 5.1)", e2},
		{"e3", "E3: R and Matlab translations (paper Section 5.2)", e3},
		{"e4", "E4: ETL flows (paper Figure 1)", e4},
		{"e5", "E5: end-to-end architecture run (paper Figure 2)", e5},
		{"e6", "E6: chase solution = program output on every target", e6},
		{"e7", "E7: translation (offline) vs calculation time", e7},
		{"e8", "E8: incremental determination vs full recalculation", e8},
		{"e9", "E9: fused vs normalized mappings (ablation)", e9},
		{"e10", "E10: chase scaling", e10},
	}
	ran := false
	for _, e := range experiments {
		if *run != "all" && *run != e.id {
			continue
		}
		fmt.Printf("==== %s ====\n", e.name)
		e.fn()
		fmt.Println()
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "exlbench: unknown experiment %q\n", *run)
		os.Exit(2)
	}
}

func compileGDP() *mapping.Mapping {
	m, err := compile(workload.GDPProgram)
	if err != nil {
		panic(err)
	}
	return m
}

func compile(src string) (*mapping.Mapping, error) {
	prog, err := exl.Parse(src)
	if err != nil {
		return nil, err
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		return nil, err
	}
	return mapping.Generate(a)
}

func e1() { render(backend.ArtifactTgds) }

// render prints one artifact of the GDP mapping.
func render(kind string) {
	out, err := backend.Render(kind, compileGDP(), "gdp")
	if err != nil {
		panic(err)
	}
	fmt.Print(out)
}

func e2() { render(backend.ArtifactSQL) }

func e3() {
	fmt.Println("-- R --")
	render(backend.ArtifactR)
	fmt.Println("-- Matlab --")
	render(backend.ArtifactMatlab)
}

func e4() {
	job, err := etl.Translate(compileGDP(), "gdp")
	if err != nil {
		panic(err)
	}
	fmt.Print(job.Summary())
}

func e5() {
	tracer := obs.NewTracer()
	metrics := obs.NewRegistry()
	eng := engine.New(engine.WithParallelDispatch(),
		engine.WithTracer(tracer), engine.WithMetrics(metrics))
	if err := eng.RegisterProgram("gdp", workload.GDPProgram); err != nil {
		panic(err)
	}
	days := 2000
	if quick {
		days = 200
	}
	data := workload.GDPSource(workload.GDPConfig{Days: days, Regions: 10})
	t0 := time.Unix(0, 0)
	for _, name := range []string{"PDR", "RGDPPC"} {
		if err := eng.PutCube(data[name], t0); err != nil {
			panic(err)
		}
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("plan: %s\n", strings.Join(rep.Plan, " -> "))
	for _, s := range rep.Subgraphs {
		fmt.Printf("  dispatched to %-6s: %v\n", s.Target, s.Cubes)
	}
	fmt.Printf("elapsed: %v\n", rep.Elapsed.Round(time.Millisecond))

	// Per-phase timings, read off the span tree the run recorded.
	fmt.Println("per-phase timings (from the trace):")
	for _, phase := range []string{"compile", "determine", "dispatch", "persist"} {
		var total time.Duration
		var n int
		for _, root := range tracer.Roots() {
			for _, s := range root.FindAll(phase) {
				total += s.Dur
				n++
			}
		}
		if n > 0 {
			fmt.Printf("  %-10s %10.3f ms\n", phase, float64(total.Microseconds())/1000)
		}
	}
	fmt.Println("metrics:")
	metrics.WriteText(os.Stdout)
}

// timeIt reports the best of three runs.
func timeIt(fn func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn()
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

func e6() {
	sizes := []int{100, 1000, 10000}
	if quick {
		sizes = []int{100, 1000}
	}
	m := compileGDP()
	fmt.Printf("%-8s %-8s %-10s %-10s\n", "days", "target", "ms", "PCHNG-len")
	for _, days := range sizes {
		data := workload.GDPSource(workload.GDPConfig{Days: days, Regions: 20})
		ref, err := chase.New(m).Solve(chase.Instance(data))
		if err != nil {
			panic(err)
		}
		for _, target := range ops.AllTargets {
			var result map[string]*model.Cube
			d := timeIt(func() {
				var err error
				result, err = backend.Run(context.Background(), target, m, data)
				if err != nil {
					panic(err)
				}
			})
			for _, rel := range m.Derived {
				if !result[rel].Equal(ref[rel], 1e-6) {
					panic(fmt.Sprintf("%s differs on %s", rel, target))
				}
			}
			fmt.Printf("%-8d %-8s %-10.2f %-10d\n", days, target, float64(d.Microseconds())/1000, result["PCHNG"].Len())
		}
	}
	fmt.Println("all targets produced identical derived cubes (checked against the chase)")
}

func e7() {
	days := 10000
	if quick {
		days = 1000
	}
	data := workload.GDPSource(workload.GDPConfig{Days: days, Regions: 20})

	translate := timeIt(func() {
		m := compileGDP()
		if _, err := sqlgen.Translate(m); err != nil {
			panic(err)
		}
		if _, err := rgen.Translate(m); err != nil {
			panic(err)
		}
		if _, err := matlabgen.Translate(m); err != nil {
			panic(err)
		}
		if _, err := etl.Translate(m, "bench"); err != nil {
			panic(err)
		}
	})
	m := compileGDP()
	execute := timeIt(func() {
		if _, err := backend.Run(context.Background(), ops.TargetSQL, m, data); err != nil {
			panic(err)
		}
	})
	fmt.Printf("translation (all 4 targets): %10.3f ms\n", float64(translate.Microseconds())/1000)
	fmt.Printf("execution   (SQL, %6d d): %10.3f ms\n", days, float64(execute.Microseconds())/1000)
	fmt.Printf("translation / execution    : %10.4f\n", float64(translate)/float64(execute))
	fmt.Println("translation is performed offline; its cost is negligible and independent of data size (Section 6)")
}

// syntheticCatalog builds n independent three-statement programs over
// monthly series.
func syntheticCatalog(n, months int) (map[string]string, workload.Data) {
	programs := make(map[string]string, n)
	data := workload.Data{}
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`
cube S%02d(t: month) measure v
A%02d := S%02d * 2
B%02d := movavg(A%02d, 3)
C%02d := (B%02d - shift(B%02d, 1)) * 100 / shift(B%02d, 1)
`, i, i, i, i, i, i, i, i, i)
		programs[fmt.Sprintf("p%02d", i)] = src
		data[fmt.Sprintf("S%02d", i)] = workload.Series(workload.SeriesConfig{
			Name: fmt.Sprintf("S%02d", i), Freq: model.Monthly, N: months,
			Seed: int64(i + 1), Level: 100, Trend: 0.5, SeasonAmp: 5, NoiseAmp: 1,
		})
	}
	return programs, data
}

func e8() {
	nProg, months := 32, 240
	if quick {
		nProg, months = 8, 120
	}
	programs, data := syntheticCatalog(nProg, months)

	build := func() *engine.Engine {
		eng := engine.New()
		names := make([]string, 0, len(programs))
		for n := range programs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if err := eng.RegisterProgram(n, programs[n]); err != nil {
				panic(err)
			}
		}
		t0 := time.Unix(0, 0)
		for _, c := range data {
			if err := eng.PutCube(c, t0); err != nil {
				panic(err)
			}
		}
		return eng
	}

	eng := build()
	full := timeIt(func() {
		if _, err := eng.Run(context.Background(), engine.RunAt(time.Unix(1, 0))); err != nil {
			panic(err)
		}
	})
	var plan []string
	incr := timeIt(func() {
		rep, err := eng.Run(context.Background(), engine.RunChanged("S00"), engine.RunAt(time.Unix(2, 0)))
		if err != nil {
			panic(err)
		}
		plan = rep.Plan
	})
	fmt.Printf("catalog: %d programs, %d derived cubes, %d-month series\n", nProg, 3*nProg, months)
	fmt.Printf("full recalculation:        %10.3f ms (%d cubes)\n", float64(full.Microseconds())/1000, 3*nProg)
	fmt.Printf("incremental (S00 changed): %10.3f ms (%d cubes: %v)\n", float64(incr.Microseconds())/1000, len(plan), plan)
	fmt.Printf("speedup: %.1fx\n", float64(full)/float64(incr))
}

func e9() {
	n := 100000
	if quick {
		n = 10000
	}
	const chainProgram = `
cube A(t: day) measure v
B := ((((A * 2) + A) / 3 - A) * 100) / (A + 1)
`
	data := workload.Data{"A": workload.Series(workload.SeriesConfig{
		Name: "A", Freq: model.Daily, N: n, Level: 50, Trend: 0.01, NoiseAmp: 1, Seed: 9,
	})}

	prog, err := exl.Parse(chainProgram)
	if err != nil {
		panic(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		panic(err)
	}
	fused, err := mapping.Generate(a)
	if err != nil {
		panic(err)
	}
	norm, err := mapping.GenerateNormalized(a)
	if err != nil {
		panic(err)
	}

	dFused := timeIt(func() {
		if _, err := chase.New(fused).Solve(chase.Instance(data)); err != nil {
			panic(err)
		}
	})
	dNorm := timeIt(func() {
		if _, err := chase.New(norm).Solve(chase.Instance(data)); err != nil {
			panic(err)
		}
	})
	// Third variant: auxiliaries as relational views on the SQL target
	// (Section 6), compared against materialized tables.
	runSQL := func(m *mapping.Mapping, opts sqlgen.Options) time.Duration {
		return timeIt(func() {
			db := sqlengine.NewDB()
			for _, name := range m.Elementary {
				if err := db.LoadCube(data[name]); err != nil {
					panic(err)
				}
			}
			script, err := sqlgen.TranslateWith(m, opts)
			if err != nil {
				panic(err)
			}
			if err := sqlgen.Execute(script, db); err != nil {
				panic(err)
			}
			if _, err := db.ExtractCube(m.Schemas["B"]); err != nil {
				panic(err)
			}
		})
	}
	dSQLTables := runSQL(norm, sqlgen.Options{})
	dSQLViews := runSQL(norm, sqlgen.Options{AuxAsViews: true})
	fmt.Printf("%-22s %8s %12s\n", "mapping", "tgds", "ms")
	fmt.Printf("%-22s %8d %12.2f  (chase)\n", "fused", len(fused.Tgds), float64(dFused.Microseconds())/1000)
	fmt.Printf("%-22s %8d %12.2f  (chase)\n", "normalized", len(norm.Tgds), float64(dNorm.Microseconds())/1000)
	fmt.Printf("%-22s %8d %12.2f  (sql)\n", "normalized, tables", len(norm.Tgds), float64(dSQLTables.Microseconds())/1000)
	fmt.Printf("%-22s %8d %12.2f  (sql)\n", "normalized, views", len(norm.Tgds), float64(dSQLViews.Microseconds())/1000)
	fmt.Printf("fusion speedup (chase): %.2fx; views vs tables (sql): %.2fx\n",
		float64(dNorm)/float64(dFused), float64(dSQLTables)/float64(dSQLViews))
}

func e10() {
	sizes := []int{1000, 10000, 100000}
	if quick {
		sizes = []int{1000, 10000}
	}
	m := compileGDP()
	fmt.Printf("%-10s %-12s %-12s %-14s\n", "PDR rows", "chase ms", "bindings", "tuples out")
	for _, rows := range sizes {
		days := rows / 20
		data := workload.GDPSource(workload.GDPConfig{Days: days, Regions: 20})
		var stats *chase.Stats
		d := timeIt(func() {
			var err error
			_, stats, err = chase.New(m).SolveWithStats(chase.Instance(data))
			if err != nil {
				panic(err)
			}
		})
		fmt.Printf("%-10d %-12.2f %-12d %-14d\n", days*20, float64(d.Microseconds())/1000, stats.Bindings, stats.TuplesGenerated)
	}
}
