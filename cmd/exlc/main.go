// Command exlc is the EXL compiler: it parses an EXL program, generates
// its schema mapping and emits a chosen artifact — the tgds in logic
// notation, an executable SQL script, R or Matlab source, or the ETL job
// metadata as JSON.
//
// Usage:
//
//	exlc -emit tgds|sql|r|matlab|etl|summary [-normalized] [-trace] program.exl
//
// With no file argument the program is read from standard input. -trace
// prints the compilation's span tree (parse → analyze → generate) to
// stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"exlengine"
	"exlengine/internal/backend"
	"exlengine/internal/etl"
	"exlengine/internal/mapping"
	"exlengine/internal/sqlgen"
)

func main() {
	emit := flag.String("emit", "tgds", "artifact to emit: tgds, sql, r, matlab, etl, summary")
	normalized := flag.Bool("normalized", false, "skip the fusion pass (one tgd per operator)")
	views := flag.Bool("views", false, "emit auxiliary relations as SQL views (with -emit sql)")
	trace := flag.Bool("trace", false, "print the compilation's span tree to stderr")
	flag.Parse()

	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var copts []exlengine.CompileOption
	if *normalized {
		copts = append(copts, exlengine.WithoutFusion())
	}
	var tracer *exlengine.Tracer
	if *trace {
		tracer = exlengine.NewTracer()
		copts = append(copts, exlengine.CompileTraced(tracer))
	}
	m, err := exlengine.Compile(src, nil, copts...)
	if *trace {
		exlengine.WriteTraceTree(os.Stderr, tracer)
	}
	if err != nil {
		fatal(err)
	}

	out, err := render(m, *emit, *views)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
	if len(out) > 0 && out[len(out)-1] != '\n' {
		fmt.Println()
	}
}

// render emits the artifact: backend.Render's kinds, plus the two that take
// what only exlc offers — SQL with auxiliaries as views, and the ETL job as
// a readable summary.
func render(m *mapping.Mapping, kind string, views bool) (string, error) {
	switch {
	case kind == "sql" && views:
		script, err := sqlgen.TranslateWith(m, sqlgen.Options{AuxAsViews: true})
		if err != nil {
			return "", err
		}
		return script.String(), nil
	case kind == "summary":
		job, err := etl.Translate(m, "exlc")
		if err != nil {
			return "", err
		}
		return job.Summary(), nil
	default:
		return backend.Render(kind, m, "exlc")
	}
}

func readSource(path string) (string, error) {
	if path == "" || path == "-" {
		raw, err := io.ReadAll(os.Stdin)
		return string(raw), err
	}
	raw, err := os.ReadFile(path)
	return string(raw), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "exlc:", err)
	os.Exit(1)
}
