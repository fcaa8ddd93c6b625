// Command exlsh is an interactive EXL console, standing in for the IDE
// tools of the paper's Section 6 with which statisticians write and
// validate programs. Cube declarations and statements are validated and
// registered as they are typed; derived cubes are recalculated immediately
// through the engine's determination and dispatch machinery.
//
//	$ exlsh
//	exl> cube A(t: year) measure v
//	exl> \loadcsv A data/a.csv
//	exl> B := cumsum(A)
//	B: 6 tuples
//	exl> \show B
//	exl> \sql
//	exl> \quit
//
// Commands: \load, \show, \cubes, \programs, \run, \trace, \metrics,
// \tgds, \sql, \r, \matlab, \etl, \help, \quit.
//
// With -store, the session's cubes live in a crash-safe durable store
// (write-ahead log + segment snapshots) in the given directory and
// survive across sessions. -mem-budget bounds the bytes a run may reserve
// for cube materialization; the shell does one run at a time.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"exlengine/internal/cli"
	"exlengine/internal/engine"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
)

func main() {
	shared := &cli.Flags{}
	shared.RegisterStore(flag.CommandLine)
	shared.RegisterGovernor(flag.CommandLine)
	flag.Parse()
	// The shell owns its tracer and metrics (\trace and \metrics show
	// them interactively), so only the store and governor flags apply.
	opts, closeStore, rec, err := shared.EngineOptions(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exlsh:", err)
		os.Exit(1)
	}
	defer closeStore()
	if rec != nil {
		fmt.Printf("store: recovered generation %d from %s in %v\n",
			rec.Generation, shared.StoreDir, rec.Elapsed.Round(time.Millisecond))
	}
	sh := newShell(os.Stdin, os.Stdout, opts...)
	sh.run()
}

type shell struct {
	in       *bufio.Scanner
	out      io.Writer
	eng      *engine.Engine
	counter  int
	lastProg string
	// tracer holds the span tree of the most recent compilation or run
	// (\trace shows it); metrics accumulates over the whole session.
	tracer  *obs.Tracer
	metrics *obs.Registry
}

func newShell(in io.Reader, out io.Writer, extra ...engine.Option) *shell {
	tracer := obs.NewTracer()
	metrics := obs.NewRegistry()
	opts := append([]engine.Option{engine.WithTracer(tracer), engine.WithMetrics(metrics)}, extra...)
	return &shell{
		in:      bufio.NewScanner(in),
		out:     out,
		eng:     engine.New(opts...),
		tracer:  tracer,
		metrics: metrics,
	}
}

func (sh *shell) printf(format string, args ...interface{}) {
	fmt.Fprintf(sh.out, format, args...)
}

func (sh *shell) run() {
	sh.printf("exlengine interactive console — \\help for commands\n")
	for {
		sh.printf("exl> ")
		if !sh.in.Scan() {
			sh.printf("\n")
			return
		}
		line := strings.TrimSpace(sh.in.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, "\\"):
			if sh.command(line) {
				return
			}
		default:
			sh.statement(line)
		}
	}
}

// statement handles a cube declaration or an assignment.
func (sh *shell) statement(line string) {
	sh.tracer.Reset() // \trace shows this statement's compile + run
	sh.counter++
	name := fmt.Sprintf("repl_%03d", sh.counter)
	if err := sh.eng.RegisterProgram(name, line); err != nil {
		sh.counter--
		sh.printf("error: %v\n", err)
		return
	}
	sh.lastProg = name
	m, _ := sh.eng.Mapping(name)
	prog := m.Analyzed.Program
	for _, d := range prog.Decls {
		sh.printf("declared %s\n", d.Name)
	}
	// Recalculate the newly derived cubes right away.
	for _, s := range prog.Stmts {
		if _, err := sh.eng.Run(context.Background(), engine.RunChanged(s.Lhs)); err != nil {
			sh.printf("error computing %s: %v\n", s.Lhs, err)
			continue
		}
		if c, ok := sh.eng.Cube(s.Lhs); ok {
			sh.printf("%s: %d tuples\n", s.Lhs, c.Len())
		}
	}
}

// command handles a backslash command; it reports whether to exit.
func (sh *shell) command(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q", "\\exit":
		return true
	case "\\help":
		sh.printf(`statements:
  cube NAME(dim: type, ...) [measure NAME]   declare an elementary cube
  NAME := expression                         derive (and compute) a cube
commands:
  \load CUBE FILE.csv     load a cube version from CSV
  \show CUBE [N]          print up to N tuples (default 10)
  \cubes                  list declared cubes
  \programs               list registered programs
  \run [target]           recalculate everything (chase|sql|etl|frame|auto)
  \trace [json]           show the span tree of the last statement or run
  \metrics                show the session's accumulated metrics
  \tgds | \sql | \r | \matlab | \etl [PROG]  show the artifact of a program
  \quit
`)
	case "\\load":
		if len(fields) != 3 {
			sh.printf("usage: \\load CUBE FILE.csv\n")
			return false
		}
		f, err := os.Open(fields[2])
		if err != nil {
			sh.printf("error: %v\n", err)
			return false
		}
		defer f.Close()
		if err := sh.eng.LoadCSV(fields[1], f, time.Now()); err != nil {
			sh.printf("error: %v\n", err)
			return false
		}
		c, _ := sh.eng.Cube(fields[1])
		sh.printf("%s: %d tuples loaded\n", fields[1], c.Len())
	case "\\show":
		if len(fields) < 2 {
			sh.printf("usage: \\show CUBE [N]\n")
			return false
		}
		c, ok := sh.eng.Cube(fields[1])
		if !ok {
			sh.printf("error: cube %s has no data\n", fields[1])
			return false
		}
		n := 10
		if len(fields) > 2 {
			fmt.Sscanf(fields[2], "%d", &n)
		}
		sh.showCube(c, n)
	case "\\cubes":
		for _, name := range sh.eng.CubeNames() {
			sch, _ := sh.eng.Schema(name)
			marker := " "
			if c, ok := sh.eng.Cube(name); ok {
				marker = fmt.Sprintf("%d tuples", c.Len())
			}
			sh.printf("  %-30s %s\n", sch, marker)
		}
	case "\\programs":
		for _, p := range sh.eng.Programs() {
			sh.printf("  %s\n", p)
		}
	case "\\run":
		target := "auto"
		if len(fields) > 1 {
			target = fields[1]
		}
		var runOpts []engine.RunOption
		if target != "auto" {
			runOpts = append(runOpts, engine.RunOn(ops.Target(target)))
		}
		sh.tracer.Reset() // \trace shows this run
		rep, err := sh.eng.Run(context.Background(), runOpts...)
		if err != nil {
			sh.printf("error: %v\n", err)
			return false
		}
		for _, s := range rep.Subgraphs {
			sh.printf("  %-6s %v\n", s.Target, s.Cubes)
		}
		sh.printf("recalculated %d cubes in %v\n", len(rep.Plan), rep.Elapsed.Round(time.Millisecond))
	case "\\trace":
		if len(sh.tracer.Roots()) == 0 {
			sh.printf("no trace yet (run a statement or \\run first)\n")
			return false
		}
		if len(fields) > 1 && fields[1] == "json" {
			obs.WriteJSONL(sh.out, sh.tracer)
		} else {
			obs.WriteTree(sh.out, sh.tracer)
		}
	case "\\metrics":
		sh.metrics.WriteText(sh.out)
	case "\\tgds", "\\sql", "\\r", "\\matlab", "\\etl":
		prog := sh.lastProg
		if len(fields) > 1 {
			prog = fields[1]
		}
		if prog == "" {
			sh.printf("error: no program yet\n")
			return false
		}
		kind := strings.TrimPrefix(fields[0], "\\")
		out, err := sh.eng.Translate(prog, kind)
		if err != nil {
			sh.printf("error: %v\n", err)
			return false
		}
		sh.printf("%s\n", out)
	default:
		sh.printf("unknown command %s (try \\help)\n", fields[0])
	}
	return false
}

func (sh *shell) showCube(c *model.Cube, n int) {
	sch := c.Schema()
	header := append(append([]string(nil), sch.DimNames()...), sch.Measure)
	sh.printf("%s\n", strings.Join(header, "\t"))
	for i, tu := range c.Tuples() {
		if i >= n {
			sh.printf("... (%d more)\n", c.Len()-n)
			return
		}
		parts := make([]string, 0, len(header))
		for _, d := range tu.Dims {
			parts = append(parts, d.String())
		}
		parts = append(parts, fmt.Sprintf("%g", tu.Measure))
		sh.printf("%s\n", strings.Join(parts, "\t"))
	}
}
