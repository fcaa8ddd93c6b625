// Command bench is this repository's benchmark: seeded inputs, four
// closed-loop workloads, end-to-end metrics measured with tracing off,
// per-layer metrics from a separate traced pass, and every output checked
// against a reference the engine under test did not produce. BENCHMARK.json
// at the root of the repository declares the workloads, the metrics and
// their regression bounds; README.md in this directory explains them.
//
// Usage, from the root of the repository:
//
//	go run ./bench [-seed n] [-seconds s] [-workload name] [-trace 0|1]
//	               [-out results.json] [-trace-out spans.jsonl] [-smoke]
//	go run ./bench -compare a.json b.json
//
// With -workload and -trace it makes that one pass and prints, as the last
// line of standard output, one JSON object {correct, attempted, failed,
// metrics}. Without them it makes both passes over every workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "seed of the input generator; the only input to generation")
	seconds := fs.Float64("seconds", 0, "time budget of one pass over one workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.String("trace", "", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics (default: both)")
	out := fs.String("out", "", "append the results, with provenance, to this JSON file")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans here as JSON Lines (default: .bench_out/trace.jsonl)")
	smoke := fs.Bool("smoke", false, "tiny sizing, one epoch of two steps: checks the harness, measures nothing")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	corrupt := fs.Bool("corrupt", false, "corrupt the reference outputs; the run must then fail verification")
	tmp := fs.String("tmp", tmpDir(), "scratch directory for durable stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1), spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	b := &bench{seed: *seed, sz: fullSizing, seconds: *seconds, tmp: *tmp, corrupt: *corrupt, log: os.Stderr}
	if b.seconds == 0 {
		b.seconds = float64(spec.RunSeconds)
	}
	if *smoke {
		b.sz, b.seconds = smokeSizing, 0
	}
	selected := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []*workloadDef{w}
	}
	var passes []bool
	switch *trace {
	case "":
		passes = []bool{false, true}
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	default:
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	defer func() {
		os.RemoveAll(b.tmp)
		if *tmp == tmpDir() {
			os.Remove(filepath.Dir(b.tmp)) // the shared parent, once no run uses it
		}
	}()

	var runs []*runResult
	var traces []tracedEpoch
	for _, w := range selected {
		for _, traced := range passes {
			res, err := b.runWorkload(w, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			runs = append(runs, res)
			b.print(res)
			traces = append(traces, res.tracers...)
		}
	}
	if len(traces) > 0 {
		if err := saveTrace(*traceOut, traces); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := b.writeResults(*out, runs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return printSummary(runs)
}

func (b *bench) print(res *runResult) {
	pass, defs := "untraced pass, end-to-end", endToEndDefs
	if res.Traced {
		pass, defs = "traced pass, per-layer", perLayerDefs
	}
	fmt.Printf("== %s (%s; seed %d, sizing %s): %d epochs x %d steps, %d ops attempted, %d failed\n",
		res.Workload, pass, b.seed, b.sz.Name, res.Epochs, res.Steps, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
	if !res.Correct {
		return
	}
	if !res.Traced {
		fmt.Printf("  %d samples; op_tail_ms is p%.0f; epoch medians (ms): %.2f\n", res.Samples, res.TailPct, res.EpochP50MS)
		fmt.Printf("  reference loop %.1f ms (nominal %.0f); op_p50_ms as the clock read it: %.2f; scale per epoch: %.3f\n",
			res.RefLoopMS, refLoopNominalMS, res.RawP50MS, res.EpochScale)
	}
	if res.Noisy {
		fmt.Println("  NOISY: the reference loop's readings lie more than 10% apart, or the tail percentile fell")
	}
	if b.sz.Name != fullSizing.Name {
		fmt.Println("  smoke sizing: these numbers are not comparable with anything")
	}
	printMetrics(os.Stdout, defs, res.Metrics)
}

// saveTrace writes the spans kept in memory during the traced passes.
func saveTrace(path string, epochs []tracedEpoch) error {
	if path == "" {
		if err := os.MkdirAll(".bench_out", 0o755); err != nil {
			return err
		}
		path = ".bench_out/trace.jsonl"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTrace(f, epochs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary prints the result line the benchmark's driver reads — the
// last line of standard output — and returns the exit code: non-zero when
// any op failed or any output was wrong.
func printSummary(runs []*runResult) int {
	summary := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range runs {
		summary.Correct = summary.Correct && r.Correct
		summary.Attempted += r.Attempted
		summary.Failed += r.Failed
		for name, v := range r.Metrics {
			if len(runs) > 1 {
				name = r.Workload + ":" + name
			}
			summary.Metrics[name] = v
		}
	}
	if !summary.Correct {
		fmt.Fprintln(os.Stderr, "bench: verification failed or ops failed; see above")
		return 1
	}
	raw, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(raw))
	return 0
}
