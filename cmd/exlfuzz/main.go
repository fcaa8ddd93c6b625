// Command exlfuzz is the differential cross-engine fuzzer: it generates
// seeded random EXL programs and source instances, executes each on the
// sqlengine, frame and etl backends, diffs every derived cube against
// the chase reference, and minimizes failures. A second pass fuzzes the
// SQL dialect's three-valued NULL semantics with random boolean and
// arithmetic expressions against an independent reference evaluator.
//
// Usage:
//
//	exlfuzz [-seed 1] [-n 200] [-stmts 6] [-budget 0] [-shrink] [-tol 1e-6]
//	        [-incremental]
//
// -tol is the relative tolerance within which an engine's measures agree
// with the chase's; -tol 0 asks for equal measures.
//
// With -incremental, each case additionally churns its data with a
// seed-derived perturbation and requires the incremental chase to
// reproduce the full solution byte for byte (zero tolerance).
//
// Exit status: 0 when every case agrees, 1 on any divergence, 2 on an
// internal failure (a generated case that does not compile, or a chase
// error — generator defects, not engine bugs).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"exlengine/internal/difftest"
	"exlengine/internal/sqlengine"
)

func main() {
	var (
		seed   = flag.Int64("seed", 1, "base seed; case i uses seed+i")
		n      = flag.Int("n", 200, "number of random programs (and NULL-semantics expressions) to run")
		stmts  = flag.Int("stmts", 6, "statements per generated program")
		budget = flag.Duration("budget", 0, "wall-clock budget; 0 means unlimited")
		shrink = flag.Bool("shrink", true, "minimize failing cases before reporting")
		tol    = flag.Float64("tol", difftest.DefaultTol, "relative measure comparison tolerance; 0 compares exactly")
		incr   = flag.Bool("incremental", false, "also diff the incremental chase against the full chase on churned data")
	)
	flag.Parse()
	if *tol < 0 {
		fmt.Fprintln(os.Stderr, "exlfuzz: -tol must not be negative")
		os.Exit(2)
	}

	start := time.Now()
	deadline := time.Time{}
	if *budget > 0 {
		deadline = start.Add(*budget)
	}
	expired := func() bool { return !deadline.IsZero() && time.Now().After(deadline) }

	divergent := 0
	ran := 0
	sqlSkipped := 0
	incrRan := 0
	for i := 0; i < *n && !expired(); i++ {
		caseSeed := *seed + int64(i)
		c := difftest.GenerateCase(caseSeed, *stmts)
		res, err := difftest.Run(c, *tol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exlfuzz: seed %d: internal failure: %v\nprogram:\n%s", caseSeed, err, c.Source())
			os.Exit(2)
		}
		ran++
		if res.SQLSkipped {
			sqlSkipped++
		}
		if len(res.Divergences) == 0 {
			continue
		}
		divergent++
		fmt.Printf("DIVERGENCE at seed %d (%d finding(s)):\n", caseSeed, len(res.Divergences))
		for _, d := range res.Divergences {
			fmt.Printf("  %s\n", d)
		}
		if *shrink {
			min := difftest.Shrink(c, difftest.Diverges(*tol))
			fmt.Printf("minimized reproduction (commit under internal/difftest/testdata/known/ if not fixing now):\n%s\n",
				difftest.FormatKnownCase(fmt.Sprintf("found by exlfuzz -seed %d -stmts %d", caseSeed, *stmts), min))
		} else {
			fmt.Printf("reproduction:\n%s%s\n", c.Source(), c.DataCSV())
		}
	}

	if *incr {
		for i := 0; i < *n && !expired(); i++ {
			caseSeed := *seed + int64(i)
			churnSeed := caseSeed*1000003 + 1
			c := difftest.GenerateCase(caseSeed, *stmts)
			res, err := difftest.RunIncremental(c, churnSeed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "exlfuzz: seed %d: incremental internal failure: %v\nprogram:\n%s", caseSeed, err, c.Source())
				os.Exit(2)
			}
			incrRan++
			if len(res.Divergences) == 0 {
				continue
			}
			divergent++
			fmt.Printf("INCREMENTAL DIVERGENCE at seed %d churn %d (%d finding(s)):\n", caseSeed, churnSeed, len(res.Divergences))
			for _, d := range res.Divergences {
				fmt.Printf("  %s\n", d)
			}
			if *shrink {
				min := difftest.Shrink(c, difftest.IncrDiverges(churnSeed))
				fmt.Printf("minimized reproduction (commit under internal/difftest/testdata/known/ if not fixing now):\n%s\n",
					difftest.FormatKnownCase(fmt.Sprintf("found by exlfuzz -incremental -seed %d -stmts %d (churn %d)", caseSeed, *stmts, churnSeed), min))
			} else {
				fmt.Printf("reproduction:\n%s%s\n", c.Source(), c.DataCSV())
			}
		}
	}

	exprDivs, err := sqlengine.FuzzNullExprs(*seed, *n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "exlfuzz: NULL-semantics fuzz: %v\n", err)
		os.Exit(2)
	}
	for _, d := range exprDivs {
		fmt.Printf("NULL-SEMANTICS DIVERGENCE: %s\n", d)
	}
	divergent += len(exprDivs)

	fmt.Printf("exlfuzz: %d programs (sql skipped on %d pad-operator cases), %d incremental parity runs, %d NULL-semantics expressions, %d divergence(s), %s\n",
		ran, sqlSkipped, incrRan, *n, divergent, time.Since(start).Round(time.Millisecond))
	if divergent > 0 {
		os.Exit(1)
	}
}
