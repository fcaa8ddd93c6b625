// Command exlrun executes an EXL program over CSV data on a chosen target
// engine and writes every derived cube back as CSV.
//
// Usage:
//
//	exlrun -program program.exl -data dir [-target auto|chase|sql|etl|frame]
//	       [-out dir] [-store dir] [-report] [-trace[=json]] [-metrics]
//	       [-timeout d] [-fragment-timeout d] [-no-fallback]
//	       [-max-concurrent n] [-mem-budget bytes] [-incremental]
//
// Runs can be delta-driven: with -incremental, a cube whose inputs have
// not changed since it was last computed (same engine process, e.g. with
// -store across invocations within one process embedding) is skipped
// outright, and a changed input propagates through the mappings as a
// tuple-level delta wherever the operators allow, recomputing only the
// affected output points (see engine.WithIncremental for the exactness
// contract).
//
// The data directory must contain one <CUBE>.csv file per elementary cube,
// with a header naming the dimensions (in declaration order) followed by
// the measure. Results are written to the output directory (default: the
// data directory) as <CUBE>.csv.
//
// Runs are fault-tolerant by default: a fragment whose target fails — an
// error, a panic, or an attempt that outlives -fragment-timeout — is re-run
// on the next target the operator-support matrix permits (chase last),
// each target once. -report prints the per-fragment record of every
// attempt and fallback, for a failed run too; -no-fallback fails fast
// instead. Ctrl-C cancels the run cleanly without writing partial results.
//
// Runs are observable: -trace prints the span tree of the whole pipeline
// (compile → determine → dispatch → fragments → attempts → target
// internals) as an indented tree, or as JSON Lines with -trace=json;
// -metrics prints the run's counters and latency histograms. All
// diagnostics (-v, -report, -trace, -metrics) go to stderr, leaving
// stdout for data.
//
// Runs are overload-safe: -max-concurrent caps how many runs execute at
// once (excess admission requests queue, then shed with typed overload
// errors) and -mem-budget bounds the bytes runs may reserve for cube
// materialization — a run that does not fit degrades to sequential
// dispatch before being rejected. A single exlrun invocation performs one
// run, so these flags matter mostly when the process is embedded or
// scripted against a shared store; they are accepted here so the same
// governor configuration can be exercised end to end from the CLI.
//
// With -store, cubes persist in a crash-safe durable store (write-ahead
// log + segment snapshots) in the given directory: every version from
// every prior run survives restarts, a crash mid-commit recovers to the
// last consistent state, and -metrics includes the durability counters
// (store_wal_bytes_total, store_fsyncs_total, store_recovery_ms, …).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"exlengine/internal/cli"
	"exlengine/internal/dispatch"
	"exlengine/internal/engine"
	"exlengine/internal/exl"
	"exlengine/internal/ops"
)

func main() {
	programPath := flag.String("program", "", "EXL program file")
	dataDir := flag.String("data", "", "directory with <CUBE>.csv inputs")
	target := flag.String("target", "auto", "execution target: auto, chase, sql, etl, frame")
	outDir := flag.String("out", "", "output directory (default: the data directory)")
	verbose := flag.Bool("v", false, "print the run report")
	report := flag.Bool("report", false, "print the fault-tolerance report (attempts, fallbacks)")
	timeout := flag.Duration("timeout", 0, "overall run timeout (0 = none)")
	fragTimeout := flag.Duration("fragment-timeout", 0, "per-fragment attempt timeout (0 = none)")
	noFallback := flag.Bool("no-fallback", false, "disable degradation to fallback targets")
	incremental := flag.Bool("incremental", false, "delta-driven recomputation: skip current cubes, maintain the rest from input deltas")
	shared := cli.Register(flag.CommandLine)
	flag.Parse()

	if *programPath == "" || *dataDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *outDir == "" {
		*outDir = *dataDir
	}

	src, err := os.ReadFile(*programPath)
	if err != nil {
		fatal(err)
	}
	opts := []engine.Option{engine.WithParallelDispatch()}
	if *noFallback {
		opts = append(opts, engine.WithoutDegradation())
	}
	if *fragTimeout > 0 {
		opts = append(opts, engine.WithFragmentTimeout(*fragTimeout))
	}
	sinks := shared.Sinks()
	sharedOpts, closeStore, rec, err := shared.EngineOptions(sinks)
	if err != nil {
		fatal(err)
	}
	defer closeStore()
	if rec != nil && *verbose {
		fmt.Fprintf(os.Stderr, "store: recovered generation %d (snapshot %d, %d replayed, %d truncated) in %v\n",
			rec.Generation, rec.SnapshotGen, rec.ReplayedRecords, rec.TruncatedRecords, rec.Elapsed)
	}
	opts = append(opts, sharedOpts...)
	eng := engine.New(opts...)
	if err := eng.RegisterProgram("main", string(src)); err != nil {
		fatal(err)
	}

	// Load every elementary cube the program declares.
	prog, err := exl.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	a, err := exl.Analyze(prog, nil)
	if err != nil {
		fatal(err)
	}
	now := time.Now()
	for _, name := range a.Elementary {
		path := filepath.Join(*dataDir, name+".csv")
		f, err := os.Open(path)
		if err != nil {
			fatal(fmt.Errorf("input for cube %s: %w", name, err))
		}
		err = eng.LoadCSV(name, f, now)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var runOpts []engine.RunOption
	if *target != "auto" {
		runOpts = append(runOpts, engine.RunOn(ops.Target(*target)))
	}
	if *incremental {
		runOpts = append(runOpts, engine.WithIncremental())
	}
	rep, err := eng.Run(ctx, runOpts...)

	// Diagnostics go out even when the run failed: the trace, the metrics
	// and the attempts of a failed run are exactly what one wants to look at.
	shared.Dump(os.Stderr, sinks)
	if *report && rep != nil {
		fmt.Fprint(os.Stderr, (&dispatch.Report{Fragments: rep.Fragments, Elapsed: rep.Elapsed}).String())
	}
	if err != nil {
		fatal(err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "plan: %v\n", rep.Plan)
		if rep.Incremental {
			fmt.Fprintf(os.Stderr, "incremental: %d cube(s) skipped as current: %v\n", len(rep.Skipped), rep.Skipped)
		}
		for _, s := range rep.Subgraphs {
			fmt.Fprintf(os.Stderr, "  %-6s %v\n", s.Target, s.Cubes)
		}
		fmt.Fprintf(os.Stderr, "elapsed: %v\n", rep.Elapsed)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	for _, name := range a.Derived {
		path := filepath.Join(*outDir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		err = eng.WriteCSV(name, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "exlrun:", err)
	os.Exit(1)
}
